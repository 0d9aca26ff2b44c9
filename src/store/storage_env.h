// StorageEnv: the pluggable I/O backend every durable read, write, rename
// and sync in the store goes through.
//
// LogGrep's deployment target is cheap cloud storage, where I/O fails,
// stalls and throttles as a matter of course — a perfect local filesystem is
// the exception, not the rule. Routing all storage traffic through one
// virtual interface buys three things:
//
//   1. PosixStorageEnv — the real thing: errno-faithful reads (NOT_FOUND vs
//      PERMISSION_DENIED vs IO_ERROR), durable fsync of files *and* parent
//      directories, a monotonic clock.
//   2. LatencyStorageEnv — a wrapper that charges a configurable (jittered)
//      latency per operation, approximating an object store's RTT so cache
//      and retry behavior can be studied without a network.
//   3. FaultInjectingStorageEnv — a deterministic, seeded chaos backend:
//      probabilistic or scheduled (fail-the-nth-call) read/write/rename/sync
//      failures, transient-vs-permanent fault budgets per path, torn writes
//      that persist a prefix before failing, and a virtual clock so retry
//      backoff and deadline budgets are testable in zero wall time.
//
// The retry policy that consumes this interface lives in src/store/retry.h;
// the quarantine/degraded-query machinery on top lives in
// src/store/quarantine.h and LogArchive.
#ifndef SRC_STORE_STORAGE_ENV_H_
#define SRC_STORE_STORAGE_ENV_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/result.h"
#include "src/common/rng.h"

namespace loggrep {

// Operation kinds, used by fault schedules and per-op metrics.
enum class StorageOp : uint8_t {
  kRead = 0,
  kWrite,
  kRename,
  kRemove,
  kSyncFile,
  kSyncDir,
};
inline constexpr size_t kNumStorageOps = 6;
const char* StorageOpName(StorageOp op);

class StorageEnv {
 public:
  virtual ~StorageEnv() = default;

  // Whole-file read. Errors are errno-faithful: kNotFound only when the
  // entity truly does not exist, kPermissionDenied when it exists but is
  // unreadable, kIOError/kUnavailable for device-level failures.
  virtual Result<std::string> ReadFile(const std::string& path) = 0;

  // Direct (non-atomic) whole-file write.
  virtual Status WriteFile(const std::string& path, std::string_view data) = 0;

  // Atomic on POSIX filesystems when from/to share a directory.
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  // Removes a regular file; kNotFound when absent.
  virtual Status RemoveFile(const std::string& path) = 0;

  // Durability barriers. SyncFile flushes a file's data to stable storage;
  // SyncDir flushes a directory entry (required after rename for the new
  // name itself to survive power loss). Tests inject counting/failing
  // implementations of these — this is the "injectable fsync hook".
  virtual Status SyncFile(const std::string& path) = 0;
  virtual Status SyncDir(const std::string& dir) = 0;

  virtual bool FileExists(const std::string& path) = 0;

  // Clock + sleep, so retry backoff and deadline budgets are injectable.
  // PosixStorageEnv uses the real monotonic clock; FaultInjectingStorageEnv
  // substitutes a virtual clock that SleepNanos advances instantly.
  virtual uint64_t NowNanos() = 0;
  virtual void SleepNanos(uint64_t nanos) = 0;

  virtual const char* name() const = 0;
};

// The process-wide real-POSIX env (never null; callers passing a null
// StorageEnv* mean "use this").
StorageEnv* DefaultStorageEnv();
// `env` if non-null, else DefaultStorageEnv().
inline StorageEnv* EnvOrDefault(StorageEnv* env) {
  return env != nullptr ? env : DefaultStorageEnv();
}

// ---------------------------------------------------------------------------
// PosixStorageEnv
// ---------------------------------------------------------------------------

class PosixStorageEnv : public StorageEnv {
 public:
  Result<std::string> ReadFile(const std::string& path) override;
  Status WriteFile(const std::string& path, std::string_view data) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Status SyncFile(const std::string& path) override;
  Status SyncDir(const std::string& dir) override;
  bool FileExists(const std::string& path) override;
  uint64_t NowNanos() override;
  void SleepNanos(uint64_t nanos) override;
  const char* name() const override { return "posix"; }
};

// ---------------------------------------------------------------------------
// LatencyStorageEnv
// ---------------------------------------------------------------------------

struct LatencyOptions {
  uint64_t per_op_nanos = 0;      // charged on every operation
  uint64_t jitter_nanos = 0;      // + uniform[0, jitter) per operation
  uint64_t per_byte_picos = 0;    // + bytes * picos / 1000 (bandwidth model)
  uint64_t seed = 0x1A7E11C7ull;  // jitter stream
};

// Simulates a slow backend by sleeping (through the base env's SleepNanos,
// so a virtual-clock base makes the simulation free) before delegating.
class LatencyStorageEnv : public StorageEnv {
 public:
  explicit LatencyStorageEnv(LatencyOptions options,
                             StorageEnv* base = nullptr);

  Result<std::string> ReadFile(const std::string& path) override;
  Status WriteFile(const std::string& path, std::string_view data) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Status SyncFile(const std::string& path) override;
  Status SyncDir(const std::string& dir) override;
  bool FileExists(const std::string& path) override;
  uint64_t NowNanos() override;
  void SleepNanos(uint64_t nanos) override;
  const char* name() const override { return "latency"; }

 private:
  void Charge(uint64_t payload_bytes);

  LatencyOptions options_;
  StorageEnv* base_;
  std::mutex mu_;
  Rng rng_;
};

// ---------------------------------------------------------------------------
// FaultInjectingStorageEnv
// ---------------------------------------------------------------------------

struct FaultOptions {
  uint64_t seed = 1;

  // Probabilistic fault storm: each operation of the kind fails with the
  // given probability (before touching the base env, except torn writes).
  double read_fail_p = 0;
  double write_fail_p = 0;
  double rename_fail_p = 0;
  double sync_fail_p = 0;

  // Fraction of injected *write* faults that tear: a seeded prefix of the
  // data is persisted through the base env before the failure is reported.
  double torn_write_p = 0;

  // Cap on probabilistic faults injected per path. A finite cap below the
  // retry attempt limit makes every fault storm *transient*: retries always
  // converge. Scheduled (FailNext/FailNth) and permanent faults ignore it.
  uint32_t max_faults_per_path = UINT32_MAX;

  // Status code injected for probabilistic faults.
  StatusCode fault_code = StatusCode::kUnavailable;

  // When true (default), NowNanos is a virtual clock advanced by SleepNanos
  // (and by 1us per operation) — retry backoff costs zero wall time.
  bool virtual_clock = true;

  // Optional registry for "storage.fault.*" counters. Borrowed.
  MetricsRegistry* metrics = nullptr;
};

// Deterministic seeded chaos backend. Thread-safe (parallel Query workers
// share one instance).
class FaultInjectingStorageEnv : public StorageEnv {
 public:
  explicit FaultInjectingStorageEnv(FaultOptions options,
                                    StorageEnv* base = nullptr);

  Result<std::string> ReadFile(const std::string& path) override;
  Status WriteFile(const std::string& path, std::string_view data) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Status SyncFile(const std::string& path) override;
  Status SyncDir(const std::string& dir) override;
  bool FileExists(const std::string& path) override;
  uint64_t NowNanos() override;
  void SleepNanos(uint64_t nanos) override;
  const char* name() const override { return "fault-injecting"; }

  // --- Scheduled faults (deterministic unit-test control). ---

  // Fails the next `count` operations of kind `op` with `code`.
  void FailNext(StorageOp op, uint32_t count,
                StatusCode code = StatusCode::kUnavailable);
  // Fails exactly the nth future call (1-based) of kind `op` — the classic
  // "EIO on the nth call" schedule.
  void FailNth(StorageOp op, uint32_t nth,
               StatusCode code = StatusCode::kIOError);

  // --- Permanent faults. ---

  // Every operation whose path contains `substring` fails with `code`,
  // forever (until cleared). Rename checks both endpoints.
  void AddPermanentFault(std::string substring,
                         StatusCode code = StatusCode::kIOError);
  void ClearPermanentFaults();

  // --- Introspection. ---

  uint64_t faults_injected() const;
  uint64_t calls(StorageOp op) const;
  uint64_t torn_writes() const;

 private:
  struct PermanentFault {
    std::string substring;
    StatusCode code;
  };

  // Returns the fault to inject for (op, path), or OkStatus(). Caller holds
  // mu_. `payload` is the write payload for torn-write simulation (the tear
  // itself happens in WriteFile after this returns non-OK with torn=true).
  Status PickFault(StorageOp op, const std::string& path, bool* torn);
  void CountFault(StorageOp op);

  FaultOptions options_;
  StorageEnv* base_;

  mutable std::mutex mu_;
  Rng rng_;
  uint64_t virtual_now_ns_ = 1;  // virtual clock (strictly monotonic)
  uint64_t call_counts_[kNumStorageOps] = {};
  uint64_t total_calls_[kNumStorageOps] = {};  // includes scheduled lookups
  uint64_t faults_injected_ = 0;
  uint64_t torn_writes_ = 0;
  std::map<std::string, uint32_t> faults_per_path_;
  // Scheduled faults per op kind: pairs of (remaining count, code) for
  // FailNext, plus absolute call indices for FailNth.
  struct Schedule {
    uint32_t fail_next = 0;
    StatusCode fail_next_code = StatusCode::kUnavailable;
    std::vector<std::pair<uint64_t, StatusCode>> fail_at_call;  // 1-based
  };
  Schedule schedules_[kNumStorageOps];
  std::vector<PermanentFault> permanent_;
  Counter* fault_counters_[kNumStorageOps] = {};
};

}  // namespace loggrep

#endif  // SRC_STORE_STORAGE_ENV_H_
