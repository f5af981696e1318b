// Process resource readings and the host fingerprint printed with every
// result.
#include "host.h"

#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

#include "workloads.h"

namespace perfbench {

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

// Keeps a value printable inside a JSON string.
std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string HostFingerprintJson(const RunOptions& options, int64_t threads,
                                const std::string& commit) {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::ostringstream out;
  out << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
      << ",\"cpu_model\":\"" << JsonEscape(CpuModel()) << "\""
      << ",\"compiler\":\"" << JsonEscape(PERFBENCH_COMPILER) << "\""
      << ",\"build_flags\":\"" << JsonEscape(PERFBENCH_BUILD_FLAGS) << "\""
      << ",\"optimized_build\":" << (optimized ? "true" : "false")
      << ",\"workload\":\"" << JsonEscape(options.workload) << "\""
      << ",\"thread_pool_threads\":" << threads
      << ",\"seed\":" << options.seed
      << ",\"seconds\":" << options.seconds
      << ",\"trace\":" << (options.trace ? 1 : 0)
      << ",\"git_commit\":\"" << JsonEscape(commit) << "\"}";
  return out.str();
}

}  // namespace perfbench
