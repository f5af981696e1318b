// Measurement helpers shared by the workloads and the self-tests: the
// percentile rule, the seeded open-loop arrival schedule, plan-op time
// attribution and span self-time arithmetic.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "plan/plan.h"

namespace perfbench {

inline constexpr double kFailed = std::numeric_limits<double>::infinity();

/// A percentile with the sample it was taken from. `beyond` counts the
/// samples ranked above the reported one; the choosing rule is that a
/// percentile is meaningful when `beyond` is at least ten.
struct Percentile {
  double value = 0.0;
  int64_t samples = 0;
  int64_t beyond = 0;
};

/// Nearest-rank percentile: the smallest sample such that at least p% of
/// the samples are <= it (rank ceil(p/100 * n), 1-based). Failed
/// operations enter as `kFailed` (+inf), so they rank above every
/// success; a percentile that lands on one reads +inf. An empty sample
/// gives value 0 with samples 0.
Percentile NearestRank(std::vector<double> values, double p);

/// Seeded open-loop schedule: exactly round(rate * seconds) arrival
/// offsets in nanoseconds, ascending, in [0, seconds). Given its count, a
/// Poisson process places its arrivals as independent uniform points, so
/// this is a Poisson schedule whose count is fixed, which keeps the
/// offered load identical across seeds. Same seed, same schedule.
std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     double seconds);

/// Files PlanRunner observer callbacks under plan ops by call order.
///
/// The observer fires once for the input slot, then once after each op
/// in plan order, so the gap between call k and call k+1 is the time of
/// op k. Attribution goes by call count, never by slot id: kAccumulate
/// writes into a slot an earlier op already defined, so a slot -> op map
/// would file its time under that earlier op.
class PlanOpTimer {
 public:
  using NowFn = int64_t (*)();
  explicit PlanOpTimer(const dhgcn::ExecutionPlan& plan, NowFn now);

  /// The op a call closed: its index (-1 for the input call) and its
  /// interval.
  struct Closed {
    int64_t op = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  /// The observer body: call from the PlanRunner observer.
  Closed Observe();
  /// Marks the end of one Run; checks that every op reported once.
  /// Returns false (and counts a bad run) otherwise.
  bool EndRun();

  const std::vector<int64_t>& op_ns() const { return op_ns_; }
  int64_t runs() const { return runs_; }
  int64_t bad_runs() const { return bad_runs_; }
  /// Total attributed nanoseconds of every op of kind `kind`.
  int64_t KindNs(dhgcn::PlanOpKind kind) const;

 private:
  std::vector<dhgcn::PlanOpKind> kinds_;
  std::vector<int64_t> op_ns_;
  NowFn now_;
  int64_t calls_ = 0;
  int64_t last_ns_ = 0;
  int64_t runs_ = 0;
  int64_t bad_runs_ = 0;
};

/// One traced interval. `parent` indexes the enclosing span in the same
/// list (-1 for a root); `key` is the step or request id the span
/// belongs to.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  int64_t key = 0;
  int64_t lane = 0;  // trace-viewer row (thread or worker)
};

/// Self time of every span: its duration minus the part of it covered by
/// the union of its children's intervals (clipped to the span, so
/// overlapping children are not subtracted twice).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
