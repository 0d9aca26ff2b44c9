#!/bin/sh
# Contract test for loggrep_cli: every query verb takes every target kind (a
# compressed box file, an archive directory, an ArchiveSet root) and exits by
# the shared contract (0 complete, 3 partial, 1 error, 2 usage).
#
#   sh tests/cli_test.sh <path-to-loggrep_cli>
#
# The fixtures are 60 generated log lines: all.log compressed into one box,
# the two halves ingested as two blocks of one archive, and the halves
# appended to a set as tenants alpha and beta. Expected hit lines come from
# `grep -n` over the raw text.
set -u
CLI=$1
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK" || exit 1

FAILURES=0
fail() {
  echo "FAIL: $*" >&2
  FAILURES=$((FAILURES + 1))
}

# expect_rc <want> <args...>: runs the CLI and checks its exit code; stdout
# goes to out.txt, stderr to err.txt.
expect_rc() {
  want=$1
  shift
  "$CLI" "$@" > out.txt 2> err.txt
  got=$?
  if [ "$got" -ne "$want" ]; then
    fail "loggrep_cli $* exited $got, want $want"
    cat err.txt >&2
  fi
}

# expect_stdout <file> <args...>: exit 0 and stdout identical to <file>.
expect_stdout() {
  want_file=$1
  shift
  expect_rc 0 "$@"
  if ! cmp -s out.txt "$want_file"; then
    fail "loggrep_cli $* printed unexpected hits"
    diff "$want_file" out.txt >&2
  fi
}

i=1
while [ $i -le 60 ]; do
  if [ $((i % 7)) -eq 0 ]; then lvl=ERROR; code=503; else lvl=INFO; code=200; fi
  printf '2024-07-01 10:00:%02d %s request id=%d code=%d path=/api/v%d\n' \
    $((i % 60)) $lvl $((1000 + i)) $code $((i % 3))
  i=$((i + 1))
done > all.log
head -n 30 all.log > a.log
tail -n +31 all.log > b.log

expect_rc 0 compress all.log box.lgc
expect_rc 0 ingest arch a.log
expect_rc 0 ingest arch b.log
[ -f arch/block-1.lgc ] || fail "two ingests did not make two blocks"
expect_rc 0 set-ingest set alpha a.log 1000
expect_rc 0 set-ingest set beta b.log 2000

# A set numbers each shard's lines from its own base: shard 1 (beta) starts
# at 2^40.
grep -n ERROR all.log > want_all.txt
grep -n ERROR a.log > want_alpha.txt
grep -n ERROR b.log | while IFS=: read -r n text; do
  echo "$((1099511627776 + n)):$text"
done > want_beta.txt
cat want_alpha.txt want_beta.txt > want_set.txt

expect_stdout want_all.txt grep box.lgc ERROR
expect_stdout want_all.txt grep arch ERROR
expect_stdout want_set.txt grep set ERROR
expect_stdout want_alpha.txt grep set ERROR alpha
expect_stdout want_beta.txt grep set ERROR beta
expect_stdout want_set.txt grep set ERROR - 0 5000
# A box or plain archive has no tenant or time: the predicates are ignored.
expect_stdout want_all.txt grep box.lgc ERROR beta 5000 10
expect_stdout want_all.txt grep arch ERROR beta 5000 10

for target in box.lgc arch set; do
  expect_rc 0 explain "$target" ERROR
  grep -q 'visited' out.txt || fail "explain $target printed no decision tree"
  expect_rc 0 metrics "$target" ERROR
  grep -q '^loggrep_' out.txt || fail "metrics $target printed no registry"
  expect_rc 0 stat "$target"
done
expect_rc 0 repair arch
expect_rc 0 repair set

# A corrupt block degrades the answer (exit 3, the healthy block's hits),
# or fails it outright under --no-degrade (exit 1), before and after the
# degraded run quarantined the block.
cp -r arch bad
size=$(wc -c < bad/block-1.lgc)
printf 'XXXXXXXXXXXXXXXX' |
  dd of=bad/block-1.lgc bs=1 seek=$((size / 2)) conv=notrunc 2> /dev/null
expect_rc 1 --no-degrade grep bad ERROR
expect_rc 3 grep bad ERROR
cmp -s out.txt want_alpha.txt || fail "degraded grep lost block 0's hits"
expect_rc 1 --no-degrade grep bad ERROR
expect_rc 3 explain bad ERROR

expect_rc 1 grep set ERROR - 5000 10  # inverted time range on a set
expect_rc 1 grep missing ERROR
expect_rc 1 stat missing
expect_rc 2 frobnicate arch ERROR

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES check(s) failed" >&2
  exit 1
fi
echo "cli contract: all checks passed"
