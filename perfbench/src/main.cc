// The DHGCN benchmark binary. Runs one workload and prints, as the
// last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). Build and run it through perfbench/run.py.
//
//   perfbench --workload {train|eval|serve} --seed N --seconds S
//             --trace {0|1} [--commit SHA] [--work-dir DIR]
//             [--trace-out FILE]
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "host.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload {train|eval|serve} "
               "--seed N --seconds S --trace {0|1} [--commit SHA] "
               "[--work-dir DIR] [--trace-out FILE]\n",
               error.c_str());
  return 2;
}

bool ParseU64(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

int Main(int argc, char** argv) {
  RunOptions options;
  std::string commit = "unknown";
  std::string trace_out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      if (value != "train" && value != "eval" && value != "serve") {
        return Usage("unknown workload '" + value + "'");
      }
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseU64(value, &n)) return Usage("bad --seed '" + value + "'");
      options.seed = n;
    } else if (flag == "--seconds") {
      if (!ParseU64(value, &n) || n < 1 || n > 600) {
        return Usage("--seconds must be a whole number in [1, 600]");
      }
      options.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) return Usage("--workload is required");

  WorkloadResult result = options.workload == "train" ? RunTrain(options)
                          : options.workload == "eval" ? RunEval(options)
                                                       : RunServe(options);

  for (const std::string& note : result.notes) {
    std::printf("[%s] %s\n", options.workload.c_str(), note.c_str());
  }
  const std::string host =
      HostFingerprintJson(options, result.threads, commit);
  std::printf("host: %s\n", host.c_str());
  if (options.trace) {
    std::printf("self-time table (span minus its child spans):\n");
    std::printf("  %-28s %8s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const Tracer::Row& row : result.tracer.SelfTimeTable()) {
      std::printf("  %-28s %8" PRId64 " %12.3f %12.3f\n", row.name.c_str(),
                  row.count, static_cast<double>(row.total_ns) * 1e-6,
                  static_cast<double>(row.self_ns) * 1e-6);
    }
    if (!trace_out.empty()) {
      if (!result.tracer.WriteChromeTrace(trace_out, result.trace_origin_ns,
                                          host)) {
        std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
        return 1;
      }
      std::printf("trace: %zu spans written to %s\n",
                  result.tracer.spans().size(), trace_out.c_str());
    }
  }
  std::string metrics;
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "error: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    metrics += (metrics.empty() ? "" : ", ") + ("\"" + m.name) +
               "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {%s}}\n",
              result.correct ? "true" : "false", result.attempted,
              result.failed, metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
