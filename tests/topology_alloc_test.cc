// Allocation budgets counted at the allocator, not at the tensor.
//
// This TU replaces the global operator new, so every heap allocation in
// the test binary is counted — std::vector shapes, CSR buffers, Rng
// state, anything — not just the owning tensor buffers AllocStats sees.
// The contract checked: once warm, the per-frame operator kernels
// (dynamic topology, joint weights, the dense dynamic mix) and a full
// plan replay make a number of allocator calls that does not grow with
// the number of frames N·T: the counts at N·T = 8 and N·T = 128 are
// equal.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "gtest/gtest.h"

#include "base/rng.h"
#include "core/dhgcn_model.h"
#include "core/dynamic_joint_weight.h"
#include "core/dynamic_topology.h"
#include "core/static_hypergraph.h"
#include "data/skeleton.h"
#include "hypergraph/hypergraph_conv.h"
#include "plan/plan_builder.h"
#include "plan/plan_runner.h"
#include "tensor/workspace.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace dhgcn {
namespace {

// Allocator calls of one warm `fn()` (two untimed warm-up calls first,
// so arenas and CSR capacities have reached their high-water marks).
template <typename Fn>
uint64_t WarmAllocations(Fn&& fn) {
  fn();
  fn();
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

struct Frames {
  int64_t n, t;
};
// N·T = 8 and N·T = 128.
constexpr Frames kFewFrames{1, 8};
constexpr Frames kManyFrames{4, 32};

TEST(TopologyAllocTest, WarmTopologyOperatorsDoNotScaleWithFrames) {
  auto count = [](Frames f) {
    Rng rng(1);
    Tensor x = Tensor::RandomNormal({f.n, 64, f.t, 25}, rng);
    DynamicTopologyOptions options;
    Workspace ws;
    return WarmAllocations([&] {
      ws.Reset();
      Tensor ops = DynamicTopologyOperators(x, options, &ws);
    });
  };
  const uint64_t few = count(kFewFrames);
  EXPECT_EQ(few, count(kManyFrames));
  EXPECT_LE(few, 4u) << "a handful of shape vectors per call, no more";
}

TEST(TopologyAllocTest, WarmJointWeightOperatorsDoNotScaleWithFrames) {
  const Hypergraph h =
      StaticSkeletonHypergraph(GetSkeletonLayout(SkeletonLayoutType::kNtu25));
  auto count = [&](Frames f) {
    Rng rng(2);
    Tensor coords = Tensor::RandomNormal({f.n, 3, f.t, 25}, rng);
    Workspace ws;
    return WarmAllocations([&] {
      ws.Reset();
      Tensor ops = DynamicJointWeightOperators(coords, h, &ws);
    });
  };
  EXPECT_EQ(count(kFewFrames), count(kManyFrames));
}

TEST(TopologyAllocTest, WarmDenseDynamicVertexMixDoesNotScaleWithFrames) {
  auto count = [](Frames f) {
    Rng rng(3);
    Tensor x = Tensor::RandomNormal({f.n, 64, f.t, 25}, rng);
    Tensor ops = Tensor::RandomNormal({f.n, f.t, 25, 25}, rng);
    Tensor out(x.shape());
    DynamicVertexMix mix;
    return WarmAllocations([&] { mix.MixPlan(x, ops, &out); });
  };
  EXPECT_EQ(count(kFewFrames), count(kManyFrames));
}

TEST(TopologyAllocTest, WarmTinyPlanReplayDoesNotScaleWithFrames) {
  auto count = [](Frames f, PlanMode mode) {
    DhgcnConfig config =
        DhgcnConfig::Tiny(SkeletonLayoutType::kKinetics18, /*num_classes=*/4);
    auto model = std::make_unique<DhgcnModel>(config);
    model->SetTraining(false);
    Rng rng(4);
    Tensor x = Tensor::RandomNormal({f.n, 3, f.t, 18}, rng);
    PlanRunner runner(
        BuildInferencePlan(*model, x.shape(), mode).ValueOrDie());
    return WarmAllocations([&] { runner.Run(x); });
  };
  for (PlanMode mode : {PlanMode::kUnfused, PlanMode::kFused}) {
    EXPECT_EQ(count(kFewFrames, mode), count(kManyFrames, mode))
        << PlanModeName(mode);
  }
}

}  // namespace
}  // namespace dhgcn
