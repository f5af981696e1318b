// In-memory span recorder for the traced runs. Spans are recorded from
// the benchmark's own code, around its calls into the library; they are
// kept in memory and written once, at exit, as Chrome trace-event JSON
// (opens in Perfetto or chrome://tracing).
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Single-threaded span list: every span is added from the thread that
/// owns the tracer (serving spans are rebuilt from response stamps after
/// the run, not from worker threads).
class Tracer {
 public:
  /// Row of the self-time table: all spans of one name.
  struct Row {
    std::string name;
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };

  void Reserve(size_t n) { spans_.reserve(n); }
  /// Adds a finished span; returns its index (usable as a parent).
  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent, int64_t key, int64_t lane = 0);
  /// Opens a span starting now; close it with Close(index).
  int64_t Open(const char* name, int64_t parent, int64_t key,
               int64_t lane = 0);
  void Close(int64_t index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
  }
  void SetParent(int64_t index, int64_t parent) {
    spans_[static_cast<size_t>(index)].parent = parent;
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Per-name totals and self times (span minus its children), in first
  /// appearance order.
  std::vector<Row> SelfTimeTable() const;

  /// Writes the spans as Chrome trace-event JSON, timestamps relative to
  /// `origin_ns`, with `metadata_json` (a JSON object) under
  /// "otherData". Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path, int64_t origin_ns,
                        const std::string& metadata_json) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
