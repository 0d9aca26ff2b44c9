// Shared harness for the table/figure reproduction benches.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/baselines/backend.h"
#include "src/cost/cost_model.h"
#include "src/workload/datasets.h"

namespace loggrep {
namespace bench {

// The decimal number in environment variable `name`, or `fallback` when it
// is unset or empty. A malformed value, or one below `min`, prints the
// variable's name and exits 2: a bench never runs at a guessed scale.
uint64_t EnvUint(const char* name, uint64_t fallback, uint64_t min = 0);

// Bytes of synthetic log generated per dataset. Controlled by the
// LOGGREP_BENCH_KB environment variable (default 768 KiB) so the benches can
// be scaled up on larger machines.
size_t DatasetBytes();

// Where a bench writes its BENCH_<name>.json result file: joined under
// $LOGGREP_BENCH_OUT_DIR when set (created if missing), else the working
// directory. Every bench emits through this so CI collects all artifacts
// from one place.
std::string BenchOutputPath(const std::string& filename);

// All five evaluated systems, in presentation order:
// gzip+grep, CLP-like, ES-like, LogGrep-SP, LogGrep.
struct System {
  std::string name;
  const LogStoreBackend* backend;
};
const std::vector<System>& AllSystems();

// Wall-clock seconds of one call.
double TimeSeconds(const std::function<void()>& fn);

// Per-(dataset, system) measurements feeding Figures 7 and 8.
struct Measurement {
  std::string dataset;
  std::string system;
  double raw_mb = 0;
  double compressed_mb = 0;
  double compress_seconds = 0;
  double query_seconds = 0;  // mean over the dataset's query suite

  double ratio() const { return compressed_mb > 0 ? raw_mb / compressed_mb : 0; }
  double compress_mb_s() const {
    return compress_seconds > 0 ? raw_mb / compress_seconds : 0;
  }
};

// Runs compression + the dataset's query suite for every system.
std::vector<Measurement> MeasureDataset(const DatasetSpec& spec);

// Converts a measurement to Equation 1 inputs, extrapolated to `target_gb`
// of raw logs (latency and size scale linearly with data volume for these
// scan-style systems).
SystemMeasurement ToCostInput(const Measurement& m, double target_gb);

// Geometric mean; empty input -> 0.
double GeoMean(const std::vector<double>& values);

}  // namespace bench
}  // namespace loggrep

#endif  // BENCH_BENCH_UTIL_H_
