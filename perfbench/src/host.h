#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct RunOptions;

/// One JSON object describing where and how a result was measured: CPU
/// count and model, compiler, the benchmark build's flags (and whether it
/// was optimized), the workload's ThreadPool size, seed and git commit.
std::string HostFingerprintJson(const RunOptions& options, int64_t threads,
                                const std::string& commit);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
