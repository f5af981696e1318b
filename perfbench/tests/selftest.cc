// Self-tests of the benchmark's measurement helpers.
//   python3 perfbench/run.py --selftest
#include <algorithm>
#include <cmath>
#include <vector>

#include "core/dhgcn_model.h"
#include "gtest/gtest.h"
#include "plan/plan_builder.h"
#include "plan/plan_runner.h"
#include "stats.h"
#include "tensor/tensor.h"

namespace perfbench {
namespace {

TEST(NearestRank, RankAndSampleCount) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  const Percentile p50 = NearestRank(v, 50);
  EXPECT_EQ(p50.value, 50);
  EXPECT_EQ(p50.samples, 100);
  EXPECT_EQ(p50.beyond, 50);
  const Percentile p99 = NearestRank(v, 99);
  EXPECT_EQ(p99.value, 99);
  EXPECT_EQ(p99.beyond, 1);
  EXPECT_EQ(NearestRank(v, 100).value, 100);
  EXPECT_EQ(NearestRank(v, 0.5).value, 1);
}

TEST(NearestRank, TenBeyondNeedsAThousandSamplesAtP99) {
  std::vector<double> v(1000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  const Percentile p99 = NearestRank(v, 99);
  EXPECT_EQ(p99.value, 990);
  EXPECT_EQ(p99.beyond, 10);
}

TEST(NearestRank, FailuresRankAboveEverySuccess) {
  std::vector<double> v(98, 5.0);
  v.push_back(kFailed);
  v.push_back(kFailed);
  EXPECT_EQ(NearestRank(v, 98).value, 5.0);
  EXPECT_TRUE(std::isinf(NearestRank(v, 99).value));
  EXPECT_EQ(NearestRank(v, 50).value, 5.0);
}

TEST(NearestRank, EmptySample) {
  const Percentile p = NearestRank({}, 99);
  EXPECT_EQ(p.samples, 0);
  EXPECT_EQ(p.value, 0.0);
}

TEST(PoissonSchedule, SameSeedSameSchedule) {
  EXPECT_EQ(PoissonSchedule(7, 80.0, 30.0), PoissonSchedule(7, 80.0, 30.0));
  EXPECT_NE(PoissonSchedule(7, 80.0, 30.0), PoissonSchedule(8, 80.0, 30.0));
}

TEST(PoissonSchedule, CountOrderAndRange) {
  const std::vector<int64_t> due = PoissonSchedule(3, 80.0, 30.0);
  EXPECT_EQ(due.size(), 2400u);
  EXPECT_TRUE(std::is_sorted(due.begin(), due.end()));
  EXPECT_GE(due.front(), 0);
  EXPECT_LT(due.back(), 30'000'000'000);
}

TEST(PoissonSchedule, MeanRateAndPoissonDispersion) {
  // 1000 one-second windows at 80/s: the mean count is the rate, and a
  // Poisson count's variance equals its mean.
  const double rate = 80.0;
  const int windows = 1000;
  const std::vector<int64_t> due = PoissonSchedule(11, rate, windows);
  std::vector<double> counts(windows, 0.0);
  for (int64_t t : due) counts[static_cast<size_t>(t / 1'000'000'000)] += 1;
  double mean = 0.0;
  for (double c : counts) mean += c;
  mean /= windows;
  double var = 0.0;
  for (double c : counts) var += (c - mean) * (c - mean);
  var /= windows - 1;
  EXPECT_NEAR(mean, rate, 1e-9);
  EXPECT_GT(var / mean, 0.85);
  EXPECT_LT(var / mean, 1.15);
  // Gaps are exponential with mean 1/rate.
  double gap_sum = 0.0;
  for (size_t i = 1; i < due.size(); ++i) {
    gap_sum += static_cast<double>(due[i] - due[i - 1]);
  }
  const double mean_gap_s =
      gap_sum / static_cast<double>(due.size() - 1) * 1e-9;
  EXPECT_NEAR(mean_gap_s, 1.0 / rate, 0.02 / rate);
}

// A fake clock whose k-th reading is sum_{i<k} (i + 1) microseconds, so
// the gap closed by observer call k + 1 (op k) is (k + 1) us.
int64_t g_fake_calls = 0;
int64_t FakeNow() {
  const int64_t k = g_fake_calls++;
  return k * (k + 1) / 2 * 1000;
}

TEST(PlanOpTimer, AttributesByCallOrderThroughAccumulate) {
  dhgcn::DhgcnModel model(dhgcn::DhgcnConfig::Tiny(
      dhgcn::SkeletonLayoutType::kKinetics18, /*num_classes=*/4));
  model.SetTraining(false);
  const dhgcn::Shape shape = {2, 3, 8, 18};
  dhgcn::PlanRunner runner(
      dhgcn::BuildInferencePlan(model, shape, dhgcn::PlanMode::kUnfused)
          .ValueOrDie());
  const dhgcn::ExecutionPlan& plan = runner.plan();

  // The plan must hold a kAccumulate whose output slot an earlier op
  // already wrote: that is the case a slot -> op map gets wrong.
  int64_t acc = -1;
  for (size_t i = 0; i < plan.ops.size() && acc < 0; ++i) {
    if (plan.ops[i].kind != dhgcn::PlanOpKind::kAccumulate) continue;
    for (size_t j = 0; j < i; ++j) {
      if (plan.ops[j].out == plan.ops[i].out) acc = static_cast<int64_t>(i);
    }
  }
  ASSERT_GE(acc, 0) << "no kAccumulate sharing a slot in the test plan";

  g_fake_calls = 0;
  PlanOpTimer timer(plan, &FakeNow);
  std::vector<int64_t> closed_ops;
  runner.SetObserver([&](int64_t, const dhgcn::Tensor&) {
    const PlanOpTimer::Closed c = timer.Observe();
    closed_ops.push_back(c.op);
  });
  dhgcn::Rng rng(5);
  runner.Run(dhgcn::Tensor::RandomNormal(shape, rng));
  EXPECT_TRUE(timer.EndRun());
  EXPECT_EQ(timer.bad_runs(), 0);

  ASSERT_EQ(closed_ops.size(), plan.ops.size() + 1);
  EXPECT_EQ(closed_ops[0], -1);  // the input call closes nothing
  for (size_t k = 0; k < plan.ops.size(); ++k) {
    EXPECT_EQ(closed_ops[k + 1], static_cast<int64_t>(k));
    EXPECT_EQ(timer.op_ns()[k], static_cast<int64_t>(k + 1) * 1000);
  }
  EXPECT_EQ(timer.op_ns()[static_cast<size_t>(acc)], (acc + 1) * 1000);
  int64_t acc_total = 0;
  for (size_t k = 0; k < plan.ops.size(); ++k) {
    if (plan.ops[k].kind == dhgcn::PlanOpKind::kAccumulate) {
      acc_total += static_cast<int64_t>(k + 1) * 1000;
    }
  }
  EXPECT_EQ(timer.KindNs(dhgcn::PlanOpKind::kAccumulate), acc_total);
}

TEST(PlanOpTimer, ShortRunIsCountedBad) {
  dhgcn::ExecutionPlan plan;
  plan.ops.resize(3);
  g_fake_calls = 0;
  PlanOpTimer timer(plan, &FakeNow);
  timer.Observe();
  timer.Observe();
  EXPECT_FALSE(timer.EndRun());
  EXPECT_EQ(timer.bad_runs(), 1);
}

TEST(SelfTimes, SubtractsTheUnionOfClippedChildren) {
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 0, 0},
      {"a", 10, 30, 0, 0, 0},    // overlaps b: union [10, 50)
      {"b", 20, 50, 0, 0, 0},
      {"c", 90, 120, 0, 0, 0},   // clipped to [90, 100)
      {"a.child", 12, 18, 1, 0, 0},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
}

TEST(SelfTimes, LeafAndDisjointChildren) {
  std::vector<Span> spans = {
      {"step", 0, 10, -1, 0, 0},
      {"forward", 0, 4, 0, 0, 0},
      {"backward", 5, 9, 0, 0, 0},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 2);  // the "rest" of the step
  EXPECT_EQ(self[1] + self[2] + self[0], 10);
}

}  // namespace
}  // namespace perfbench
