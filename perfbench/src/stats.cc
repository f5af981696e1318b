#include "stats.h"

#include <algorithm>
#include <cmath>
#include <random>

namespace perfbench {

Percentile NearestRank(std::vector<double> values, double p) {
  Percentile out;
  out.samples = static_cast<int64_t>(values.size());
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<int64_t>(rank, 1, out.samples);
  out.value = values[static_cast<size_t>(rank - 1)];
  out.beyond = out.samples - rank;
  return out;
}

std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     double seconds) {
  const int64_t count = std::llround(rate_per_s * seconds);
  const double span_ns = seconds * 1e9;
  // mt19937_64 output is fixed by the standard; the 53-bit mantissa
  // mapping is written out so the schedule does not depend on the
  // library's distribution implementations.
  std::mt19937_64 gen(seed);
  std::vector<int64_t> due;
  due.reserve(static_cast<size_t>(std::max<int64_t>(count, 0)));
  for (int64_t i = 0; i < count; ++i) {
    const double u = static_cast<double>(gen() >> 11) * 0x1.0p-53;
    due.push_back(static_cast<int64_t>(u * span_ns));
  }
  std::sort(due.begin(), due.end());
  return due;
}

PlanOpTimer::PlanOpTimer(const dhgcn::ExecutionPlan& plan, NowFn now)
    : op_ns_(plan.ops.size(), 0), now_(now) {
  kinds_.reserve(plan.ops.size());
  for (const dhgcn::PlanOp& op : plan.ops) kinds_.push_back(op.kind);
}

PlanOpTimer::Closed PlanOpTimer::Observe() {
  const int64_t t = now_();
  Closed closed;
  // Call 0 is the input slot; call k >= 1 closes op k - 1.
  if (calls_ > 0 && calls_ <= static_cast<int64_t>(op_ns_.size())) {
    closed = Closed{calls_ - 1, last_ns_, t};
    op_ns_[static_cast<size_t>(calls_ - 1)] += t - last_ns_;
  }
  last_ns_ = t;
  ++calls_;
  return closed;
}

bool PlanOpTimer::EndRun() {
  const bool ok = calls_ == static_cast<int64_t>(op_ns_.size()) + 1;
  calls_ = 0;
  ++runs_;
  if (!ok) ++bad_runs_;
  return ok;
}

int64_t PlanOpTimer::KindNs(dhgcn::PlanOpKind kind) const {
  int64_t total = 0;
  for (size_t i = 0; i < kinds_.size(); ++i) {
    if (kinds_[i] == kind) total += op_ns_[i];
  }
  return total;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[static_cast<size_t>(s.parent)].push_back({lo, hi});
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

}  // namespace perfbench
