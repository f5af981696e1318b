// Differential and literal-equation oracles for the flat dynamic-topology
// kernel and the dense DynamicVertexMix path.
//
//  * Differential: DynamicTopologyOperators (and its object-level
//    wrappers) must be memcmp-equal to the frozen per-frame reference in
//    tests/reference/ across seeds, V, the Tab. 3 (k_n, k_m) grid plus the
//    k = 1 / k = V extremes, channel counts that cross the blocked-GEMM
//    threshold and a kGemmKC split, inputs with exact distance ties, both
//    router modes of the reference operator, and threads 1/2/7. Same for
//    the dense DynamicVertexMix against the scalar dot-product loop.
//  * NaN: features large enough for the Gram to overflow give NaN
//    distances; the kernel must not crash, must be deterministic across
//    runs and thread counts, and must still emit well-formed hyperedges.
//  * Eqs. 2–5: the operator checked against a naive double-precision
//    Dv^-1/2 H W De^-1 H^T Dv^-1/2 built from explicit matrices.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include "gtest/gtest.h"

#include "base/rng.h"
#include "base/thread_pool.h"
#include "core/dynamic_joint_weight.h"
#include "core/dynamic_topology.h"
#include "core/static_hypergraph.h"
#include "data/skeleton.h"
#include "hypergraph/frame_topology.h"
#include "hypergraph/hypergraph_conv.h"
#include "hypergraph/kmeans.h"
#include "hypergraph/knn.h"
#include "reference/dynamic_topology_reference.h"
#include "tensor/sparse_router.h"
#include "tensor/workspace.h"

namespace dhgcn {
namespace {

const int64_t kThreadCounts[] = {1, 2, 7};

bool BitEqual(const Tensor& a, const Tensor& b) {
  return ShapesEqual(a.shape(), b.shape()) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// Restores the process-wide pool and router after each test.
class DynamicTopologyDiffTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ThreadPool::Get().SetThreads(1);
    SparseRouter::Get().set_mode(SparseMode::kAuto);
  }
};

enum class Ties { kNone, kDuplicatedJoints, kZeroFrame };

// (N, C, T, V) features; the tie variants copy joint 0 onto every third
// joint of every frame, or zero the whole first frame of sample 0.
Tensor MakeFeatures(int64_t n, int64_t c, int64_t t, int64_t v,
                    uint64_t seed, Ties ties) {
  Rng rng(seed);
  Tensor x = Tensor::RandomNormal({n, c, t, v}, rng);
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t ch = 0; ch < c; ++ch) {
      for (int64_t tt = 0; tt < t; ++tt) {
        for (int64_t j = 0; j < v; ++j) {
          if (ties == Ties::kDuplicatedJoints && j % 3 == 0) {
            x.at(b, ch, tt, j) = x.at(b, ch, tt, 0);
          }
          if (ties == Ties::kZeroFrame && b == 0 && tt == 0) {
            x.at(b, ch, tt, j) = 0.0f;
          }
        }
      }
    }
  }
  return x;
}

Tensor FrameFeatures(const Tensor& x, int64_t b, int64_t tt) {
  const int64_t c = x.dim(1), v = x.dim(3);
  Tensor frame({v, c});
  for (int64_t j = 0; j < v; ++j) {
    for (int64_t ch = 0; ch < c; ++ch) frame.at(j, ch) = x.at(b, ch, tt, j);
  }
  return frame;
}

struct KnKm {
  int64_t kn, km;
};

// Tab. 3's grid, then k_n in {1, V} and k_m in {1, V} (V filled in).
std::vector<KnKm> KnKmGrid(int64_t v) {
  return {{2, 3}, {2, 4}, {2, 5}, {3, 3}, {4, 3}, {3, 4},
          {1, 4}, {v, 4}, {3, 1}, {3, v}};
}

TEST_F(DynamicTopologyDiffTest, OperatorsMatchFrozenReferenceOnGrid) {
  int64_t cases = 0;
  for (int64_t v : {25, 18, 9}) {
    for (int64_t c : {3, 16, 64, 256, 300}) {
      for (uint64_t seed : {11u, 12u}) {
        const Ties ties = seed == 11u ? Ties::kNone : Ties::kDuplicatedJoints;
        Tensor x = MakeFeatures(2, c, 3, v, seed * 1000 + v + c, ties);
        for (const KnKm& k : KnKmGrid(v)) {
          DynamicTopologyOptions options;
          options.kn = k.kn;
          options.km = k.km;
          options.seed = seed;
          ThreadPool::Get().SetThreads(1);
          Tensor expected = reference::DynamicTopologyOperators(x, options);
          for (int64_t threads : kThreadCounts) {
            ThreadPool::Get().SetThreads(threads);
            Tensor got = DynamicTopologyOperators(x, options);
            ASSERT_TRUE(BitEqual(expected, got))
                << "V=" << v << " C=" << c << " seed=" << seed
                << " kn=" << k.kn << " km=" << k.km
                << " threads=" << threads;
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 3 * 5 * 2 * 10 * 3);
}

TEST_F(DynamicTopologyDiffTest, BothRouterModesOfTheReferenceAgree) {
  // The reference assembles Eq. 5 through NormalizedHypergraphOperator,
  // whose dense and CSR paths are both bit-identical to the flat
  // assembly; check against each explicitly.
  Tensor x = MakeFeatures(2, 64, 4, 25, 21, Ties::kNone);
  DynamicTopologyOptions options;
  Tensor got = DynamicTopologyOperators(x, options);
  for (SparseMode mode : {SparseMode::kOff, SparseMode::kOn}) {
    SparseRouter::Get().set_mode(mode);
    EXPECT_TRUE(BitEqual(reference::DynamicTopologyOperators(x, options), got))
        << SparseModeName(mode);
  }
}

TEST_F(DynamicTopologyDiffTest, ExactTiesAndZeroFrameMatchReference) {
  for (Ties ties : {Ties::kDuplicatedJoints, Ties::kZeroFrame}) {
    for (int64_t c : {3, 64}) {
      Tensor x = MakeFeatures(2, c, 5, 25, 31 + c, ties);
      for (const KnKm& k : KnKmGrid(25)) {
        DynamicTopologyOptions options;
        options.kn = k.kn;
        options.km = k.km;
        Tensor expected = reference::DynamicTopologyOperators(x, options);
        for (int64_t threads : kThreadCounts) {
          ThreadPool::Get().SetThreads(threads);
          ASSERT_TRUE(BitEqual(expected, DynamicTopologyOperators(x, options)))
              << "ties=" << static_cast<int>(ties) << " C=" << c
              << " kn=" << k.kn << " km=" << k.km << " threads=" << threads;
        }
      }
    }
  }
}

TEST_F(DynamicTopologyDiffTest, IterationCapAndSeedsMatchReference) {
  Tensor x = MakeFeatures(1, 16, 6, 18, 41, Ties::kNone);
  for (int64_t max_iters : {1, 2, 20}) {
    for (uint64_t seed : {0u, 977u, 123456789u}) {
      DynamicTopologyOptions options;
      options.kmeans_max_iters = max_iters;
      options.seed = seed;
      EXPECT_TRUE(BitEqual(reference::DynamicTopologyOperators(x, options),
                           DynamicTopologyOperators(x, options)))
          << "max_iters=" << max_iters << " seed=" << seed;
    }
  }
}

TEST_F(DynamicTopologyDiffTest, WorkspaceAndIntoPathsMatch) {
  Tensor x = MakeFeatures(2, 64, 8, 25, 51, Ties::kNone);
  DynamicTopologyOptions options;
  Tensor expected = reference::DynamicTopologyOperators(x, options);
  Workspace ws;
  EXPECT_TRUE(BitEqual(expected, DynamicTopologyOperators(x, options, &ws)));
  Tensor into({2, 8, 25, 25});
  DynamicTopologyOperatorsInto(x, options, &into);
  EXPECT_TRUE(BitEqual(expected, into));
}

TEST_F(DynamicTopologyDiffTest, ObjectWrappersMatchReference) {
  for (int64_t v : {25, 9}) {
    for (int64_t c : {3, 64, 300}) {
      for (Ties ties : {Ties::kNone, Ties::kDuplicatedJoints}) {
        Tensor frame =
            FrameFeatures(MakeFeatures(1, c, 1, v, 61 + c, ties), 0, 0);
        Tensor dist = PairwiseDistances(frame);
        EXPECT_TRUE(BitEqual(reference::PairwiseDistances(frame), dist));
        for (int64_t i = 0; i < v; ++i) {
          EXPECT_EQ(NearestNeighbors(dist, i, v - 1),
                    reference::NearestNeighbors(dist, i, v - 1));
        }
        for (const KnKm& k : KnKmGrid(v)) {
          EXPECT_EQ(KnnHyperedges(frame, k.kn),
                    reference::KnnHyperedges(frame, k.kn));
          Rng rng_a(k.km), rng_b(k.km);
          KMeansResult got = KMeansClusters(frame, k.km, rng_a, 20);
          KMeansResult want = reference::KMeansClusters(frame, k.km, rng_b, 20);
          EXPECT_EQ(got.clusters, want.clusters);
          EXPECT_EQ(got.medoids, want.medoids);
          EXPECT_EQ(got.iterations, want.iterations);
          EXPECT_EQ(got.converged, want.converged);
          // Both consumed the same draws from their generators.
          EXPECT_EQ(rng_a.UniformInt(0, 1 << 30), rng_b.UniformInt(0, 1 << 30));
          DynamicTopologyOptions options;
          options.kn = k.kn;
          options.km = k.km;
          Hypergraph a = DynamicTopologyHypergraph(frame, options, 3);
          Hypergraph b =
              reference::DynamicTopologyHypergraph(frame, options, 3);
          EXPECT_EQ(a.edges(), b.edges());
          EXPECT_EQ(a.edge_weights(), b.edge_weights());
        }
      }
    }
  }
}

TEST_F(DynamicTopologyDiffTest, DenseDynamicVertexMixMatchesScalarLoop) {
  for (int64_t v : {25, 18, 9}) {
    for (int64_t c : {1, 3, 64}) {
      Rng rng(71 + v + c);
      Tensor x = Tensor::RandomNormal({2, c, 5, v}, rng);
      Tensor ops = Tensor::RandomNormal({2, 5, v, v}, rng);
      Tensor expected = reference::DynamicVertexMixDense(x, ops);
      DynamicVertexMix mix;
      SparseRouter::Get().set_mode(SparseMode::kOff);
      for (int64_t threads : kThreadCounts) {
        ThreadPool::Get().SetThreads(threads);
        Tensor out(x.shape());
        mix.MixPlan(x, ops, &out);
        ASSERT_TRUE(BitEqual(expected, out))
            << "V=" << v << " C=" << c << " threads=" << threads;
      }
    }
  }
}

TEST_F(DynamicTopologyDiffTest, DenseMixOfTopologyOperatorsMatchesScalarLoop) {
  // Real topology operators are ~0.6 dense, so the auto router keeps
  // them on the dense path.
  Tensor x = MakeFeatures(2, 64, 8, 25, 81, Ties::kNone);
  Tensor ops = DynamicTopologyOperators(x, DynamicTopologyOptions{});
  ASSERT_FALSE(SparseRouter::Get().ShouldRoute(
      SparseRouter::MeasureDensity(ops)));
  Tensor expected = reference::DynamicVertexMixDense(x, ops);
  DynamicVertexMix mix;
  mix.SetOperators(ops);
  for (int64_t threads : kThreadCounts) {
    ThreadPool::Get().SetThreads(threads);
    EXPECT_TRUE(BitEqual(expected, mix.Forward(x))) << "threads=" << threads;
  }
}

// --- Joint-weight operators (Eq. 9) ----------------------------------------

TEST_F(DynamicTopologyDiffTest, JointWeightOperatorsMatchReference) {
  // The two skeleton hypergraphs, and one whose edges repeat a member
  // (Hypergraph accepts that; Imp holds the entry once).
  const std::vector<Hypergraph> hypergraphs = {
      StaticSkeletonHypergraph(GetSkeletonLayout(SkeletonLayoutType::kNtu25)),
      StaticSkeletonHypergraph(
          GetSkeletonLayout(SkeletonLayoutType::kKinetics18)),
      Hypergraph(9, {{0, 1, 1, 2}, {2, 3, 4}, {4, 4}, {5, 6, 7, 8, 0, 5}})};
  for (const Hypergraph& h : hypergraphs) {
    const int64_t v = h.num_vertices();
    Rng rng(131 + v);
    Tensor coords = Tensor::RandomNormal({2, 3, 6, v}, rng);
    // A still joint (zero motion) and a still frame pair exercise the
    // uniform-share fallback. The edge-ordered assembly has the bits of
    // both reference routes.
    for (int64_t tt = 0; tt < 6; ++tt) coords.at(0, 0, tt, 2) = 1.0f;
    for (int64_t ch = 0; ch < 3; ++ch) {
      for (int64_t j = 0; j < v; ++j) coords.at(1, ch, 3, j) = coords.at(1, ch, 2, j);
    }
    const Tensor ops = DynamicJointWeightOperators(coords, h);
    for (SparseMode mode : {SparseMode::kOff, SparseMode::kOn}) {
      SparseRouter::Get().set_mode(mode);
      EXPECT_TRUE(BitEqual(reference::DynamicJointWeightOperators(coords, h),
                           ops))
          << "V=" << v << " mode=" << SparseModeName(mode);
    }
  }
}

// --- NaN distances --------------------------------------------------------

TEST_F(DynamicTopologyDiffTest, OverflowingFeaturesGiveNaNDistancesSafely) {
  const int64_t v = 25, c = 64;
  Tensor x = MakeFeatures(2, c, 4, v, 91, Ties::kNone);
  for (int64_t i = 0; i < x.numel(); ++i) x.data()[i] *= 1e20f;
  // The Gram overflows (|x|^2 ~ 1e40 > FLT_MAX), so distances go to
  // inf - inf = NaN: the case the total order exists for.
  Tensor dist = PairwiseDistances(FrameFeatures(x, 0, 0));
  int64_t nans = 0;
  for (int64_t i = 0; i < dist.numel(); ++i) nans += std::isnan(dist.data()[i]);
  ASSERT_GT(nans, 0);

  DynamicTopologyOptions options;
  ThreadPool::Get().SetThreads(1);
  Tensor serial = DynamicTopologyOperators(x, options);
  EXPECT_TRUE(BitEqual(serial, DynamicTopologyOperators(x, options)));
  for (int64_t threads : kThreadCounts) {
    ThreadPool::Get().SetThreads(threads);
    EXPECT_TRUE(BitEqual(serial, DynamicTopologyOperators(x, options)))
        << "threads=" << threads;
  }
  for (int64_t i = 0; i < serial.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(serial.data()[i]));
  }

  for (int64_t kn : {int64_t{1}, int64_t{3}, v}) {
    for (int64_t km : {int64_t{1}, int64_t{4}, v}) {
      options.kn = kn;
      options.km = km;
      Hypergraph h =
          DynamicTopologyHypergraph(FrameFeatures(x, 1, 2), options, 2);
      ASSERT_EQ(h.num_edges(), v + km);
      for (int64_t e = 0; e < v; ++e) {
        const Hyperedge& edge = h.edges()[static_cast<size_t>(e)];
        std::set<int64_t> distinct(edge.begin(), edge.end());
        EXPECT_EQ(static_cast<int64_t>(edge.size()), kn);
        EXPECT_EQ(static_cast<int64_t>(distinct.size()), kn);
        EXPECT_EQ(edge[0], e);
        EXPECT_GE(*distinct.begin(), 0);
        EXPECT_LT(*distinct.rbegin(), v);
      }
      std::set<int64_t> covered;
      for (int64_t e = v; e < h.num_edges(); ++e) {
        const Hyperedge& edge = h.edges()[static_cast<size_t>(e)];
        EXPECT_FALSE(edge.empty());
        covered.insert(edge.begin(), edge.end());
      }
      EXPECT_EQ(static_cast<int64_t>(covered.size()), v);
    }
  }
}

TEST_F(DynamicTopologyDiffTest, NaNDistancesRankLastTiesByIndex) {
  const float nan = std::nanf("");
  // Vertex 0's row: NaN, and numbers with an exact tie.
  Tensor dist = Tensor::FromVector(
      {1, 6}, {0.0f, nan, 2.0f, nan, 1.0f, 2.0f});
  for (int64_t k = 0; k <= 5; ++k) {
    std::vector<int64_t> got(static_cast<size_t>(k));
    SelectNearest(dist.data(), 6, 0, k, got.data());
    const std::vector<int64_t> full = {4, 2, 5, 1, 3};
    EXPECT_EQ(got, std::vector<int64_t>(full.begin(), full.begin() + k));
  }
}

// --- Eqs. 2–5 literal oracle ----------------------------------------------

// Omega = Dv^-1/2 H W De^-1 H^T Dv^-1/2 in double from explicit matrices:
// H (V, E) incidence (Eq. 2), W = diag(w), Dv = diag(H w) (Eq. 3),
// De = diag(H^T 1) (Eq. 4), multiplied out naively (Eq. 5).
std::vector<double> LiteralOperator(const Hypergraph& h) {
  const int64_t nv = h.num_vertices(), ne = h.num_edges();
  std::vector<double> H(static_cast<size_t>(nv * ne), 0.0);
  for (int64_t e = 0; e < ne; ++e) {
    for (int64_t u : h.edges()[static_cast<size_t>(e)]) {
      H[static_cast<size_t>(u * ne + e)] = 1.0;
    }
  }
  std::vector<double> W(static_cast<size_t>(ne * ne), 0.0);
  for (int64_t e = 0; e < ne; ++e) {
    W[static_cast<size_t>(e * ne + e)] = h.edge_weights()[static_cast<size_t>(e)];
  }
  std::vector<double> dv_inv_sqrt(static_cast<size_t>(nv * nv), 0.0);
  for (int64_t u = 0; u < nv; ++u) {
    double d = 0.0;
    for (int64_t e = 0; e < ne; ++e) {
      d += W[static_cast<size_t>(e * ne + e)] * H[static_cast<size_t>(u * ne + e)];
    }
    dv_inv_sqrt[static_cast<size_t>(u * nv + u)] = d > 0.0 ? 1.0 / std::sqrt(d) : 0.0;
  }
  std::vector<double> de_inv(static_cast<size_t>(ne * ne), 0.0);
  for (int64_t e = 0; e < ne; ++e) {
    double d = 0.0;
    for (int64_t u = 0; u < nv; ++u) d += H[static_cast<size_t>(u * ne + e)];
    de_inv[static_cast<size_t>(e * ne + e)] = 1.0 / d;
  }
  auto matmul = [](const std::vector<double>& a, const std::vector<double>& b,
                   int64_t m, int64_t k, int64_t n) {
    std::vector<double> out(static_cast<size_t>(m * n), 0.0);
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        double acc = 0.0;
        for (int64_t p = 0; p < k; ++p) {
          acc += a[static_cast<size_t>(i * k + p)] * b[static_cast<size_t>(p * n + j)];
        }
        out[static_cast<size_t>(i * n + j)] = acc;
      }
    }
    return out;
  };
  std::vector<double> Ht(static_cast<size_t>(ne * nv));
  for (int64_t u = 0; u < nv; ++u) {
    for (int64_t e = 0; e < ne; ++e) {
      Ht[static_cast<size_t>(e * nv + u)] = H[static_cast<size_t>(u * ne + e)];
    }
  }
  std::vector<double> left = matmul(dv_inv_sqrt, H, nv, nv, ne);
  left = matmul(left, W, nv, ne, ne);
  left = matmul(left, de_inv, nv, ne, ne);
  left = matmul(left, Ht, nv, ne, nv);
  return matmul(left, dv_inv_sqrt, nv, nv, nv);
}

// Documented tolerance: each float entry is a sum of positive terms
// (no cancellation), each term carrying a few float roundings (sqrt,
// reciprocal, two products) plus the final float cast — a few ulp, so a
// relative 2e-6 per entry, and exact zeros where no hyperedge joins the
// pair.
constexpr double kEqRelTol = 2e-6;

void ExpectMatchesLiteral(const float* got, const Hypergraph& h,
                          const char* what) {
  std::vector<double> want = LiteralOperator(h);
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i] == 0.0) {
      ASSERT_EQ(got[i], 0.0f) << what << " entry " << i;
    } else {
      ASSERT_LE(std::fabs(got[i] - want[i]), kEqRelTol * want[i])
          << what << " entry " << i << ": " << got[i] << " vs " << want[i];
    }
  }
}

TEST_F(DynamicTopologyDiffTest, FlatAssemblyMatchesLiteralEquations) {
  for (int64_t v : {25, 18, 9}) {
    for (const KnKm& k : KnKmGrid(v)) {
      Tensor x = MakeFeatures(1, 16, 2, v, 101 + v, Ties::kNone);
      DynamicTopologyOptions options;
      options.kn = k.kn;
      options.km = k.km;
      Tensor ops = DynamicTopologyOperators(x, options);
      for (int64_t tt = 0; tt < 2; ++tt) {
        Hypergraph h = DynamicTopologyHypergraph(
            FrameFeatures(x, 0, tt), options, static_cast<uint64_t>(tt));
        ExpectMatchesLiteral(ops.data() + tt * v * v, h, "flat assembly");
      }
    }
  }
}

TEST_F(DynamicTopologyDiffTest, NormalizedOperatorMatchesLiteralEquations) {
  Rng rng(111);
  for (int trial = 0; trial < 20; ++trial) {
    const int64_t nv = 5 + trial % 7;
    const int64_t ne = 1 + trial % 9;
    std::vector<Hyperedge> edges;
    std::vector<float> weights;
    for (int64_t e = 0; e < ne; ++e) {
      Hyperedge edge;
      for (int64_t u = 0; u < nv; ++u) {
        if (rng.Bernoulli(0.4f)) edge.push_back(u);
      }
      if (edge.empty()) edge.push_back(rng.UniformInt(0, nv - 1));
      edges.push_back(edge);
      weights.push_back(trial % 2 == 0 ? 1.0f : rng.Uniform(0.25f, 4.0f));
    }
    Hypergraph h(nv, edges, weights);  // may leave isolated vertices
    for (SparseMode mode : {SparseMode::kOff, SparseMode::kOn}) {
      SparseRouter::Get().set_mode(mode);
      Tensor omega = NormalizedHypergraphOperator(h);
      ExpectMatchesLiteral(omega.data(), h, SparseModeName(mode));
    }
  }
}

}  // namespace
}  // namespace dhgcn
