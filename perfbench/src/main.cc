// perfbench: the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--trace-out <file>]
//   perfbench --digest --seed <n> --workdir <dir>
//
// Prints human-readable report lines (environment stamp, every metric with
// its unit and sample count), then, as the last line, one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones. A wrong answer exits 1; anything else that stops a run exits 2.
// perfbench/run.py builds this binary and is the intended entry point.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "perfbench/src/probes.h"
#include "perfbench/src/workloads.h"
#include "src/common/build_info.h"
#include "src/common/json.h"
#include "src/common/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

// Rounds of real durability barriers timed after each run for the
// environment stamp (perfbench::MeasureHostSync).
constexpr int kHostSyncRounds = 32;

const char* SanitizerName() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir> [--trace-out <file>]\n"
               "       perfbench --digest --seed <n> --workdir <dir>\n",
               why);
  return 2;
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string trace_out;
  bool digest = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--digest") {
      digest = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--workdir") {
      opt.workdir = value;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || opt.workdir.empty()) {
    return Usage("--seed and --workdir are required");
  }
  std::filesystem::create_directories(opt.workdir);
  if (digest) {
    std::cout << perfbench::DigestInputs(opt.seed, opt.workdir) << std::endl;
    return 0;
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == opt.workload;
  }
  if (!known || opt.seconds <= 0) {
    return Usage("unknown workload or non-positive --seconds");
  }

  const perfbench::StealMeter steal;
  const perfbench::Outcome outcome = perfbench::RunWorkload(opt, std::cout);
  const double steal_share = steal.Share();

  std::string stamp = "{\"git_sha\":" + loggrep::JsonQuote(loggrep::BuildGitSha()) +
                      ",\"build_type\":" + loggrep::JsonQuote(PERFBENCH_BUILD_TYPE) +
                      ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
                      ",\"simd\":" +
                      loggrep::JsonQuote(loggrep::SimdTierName(loggrep::ActiveSimdTier())) +
                      ",\"sanitizer\":" + loggrep::JsonQuote(SanitizerName()) +
                      ",\"seed\":" + std::to_string(opt.seed) +
                      ",\"workload\":" + loggrep::JsonQuote(opt.workload) +
                      ",\"trace\":" + (opt.trace ? "1" : "0") +
                      ",\"cpu_steal_share\":" + FormatNumber(steal_share);
  const perfbench::HostSync host_sync = perfbench::MeasureHostSync(opt.workdir, kHostSyncRounds);
  stamp += ",\"sync_model_us\":{\"file\":" +
           FormatNumber(static_cast<double>(perfbench::ModeledSyncEnv::kSyncFileNs) / 1e3) +
           ",\"dir\":" +
           FormatNumber(static_cast<double>(perfbench::ModeledSyncEnv::kSyncDirNs) / 1e3) +
           "},\"host_sync_p50_us\":{\"file\":" + FormatNumber(host_sync.file_us) +
           ",\"dir\":" + FormatNumber(host_sync.dir_us) + "}";
  for (const auto& [key, value] : outcome.stamp) {
    stamp += "," + loggrep::JsonQuote(key) + ":" + value;
  }
  stamp += "}";
  std::cout << "env: " << stamp << "\n";

  if (opt.trace && !trace_out.empty()) {
    std::ofstream out(trace_out);
    out << perfbench::SpansToChromeJson(perfbench::SpanRecorder::Get().Snapshot());
    std::cout << "trace: spans written to " << trace_out << "\n";
  }

  std::string json = "{\"correct\":" + std::string(outcome.correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(outcome.attempted) +
                     ",\"failed\":" + std::to_string(outcome.failed) + ",\"metrics\":{";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const perfbench::Metric& m = outcome.metrics[i];
    if (i > 0) {
      json += ",";
    }
    std::cout << "metric " << m.name << " = " << FormatNumber(m.value) << " " << m.unit
              << "\n";
    json += loggrep::JsonQuote(m.name) + ":{\"value\":" + FormatNumber(m.value) +
            ",\"unit\":" + loggrep::JsonQuote(m.unit) + "}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return outcome.correct ? 0 : 1;
}
