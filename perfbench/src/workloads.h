// The three benchmark workloads and the types they report through.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for files the workloads prepare (model checkpoints).
  std::string work_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: the correctness verdict, the
/// operation counts, and the metrics of the requested mode (end-to-end
/// with tracing off, per-layer with tracing on). `notes` are
/// human-readable lines printed before the result.
struct WorkloadResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t threads = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  Tracer tracer;
  int64_t trace_origin_ns = 0;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

/// Set-up is repeated this many times per untraced run; setup_s is the
/// median, and the last set-up's objects run the timed phase.
inline constexpr int kSetupRepeats = 5;

WorkloadResult RunTrain(const RunOptions& options);
WorkloadResult RunEval(const RunOptions& options);
WorkloadResult RunServe(const RunOptions& options);

/// Process CPU seconds (user + system) so far.
double ProcessCpuSeconds();
/// Peak resident set size of the process, MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
