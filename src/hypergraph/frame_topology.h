#ifndef DHGCN_HYPERGRAPH_FRAME_TOPOLOGY_H_
#define DHGCN_HYPERGRAPH_FRAME_TOPOLOGY_H_

#include <cstddef>
#include <cstdint>

#include "base/check.h"
#include "base/rng.h"
#include "tensor/gemm_kernel.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"

namespace dhgcn {

/// \brief One frame of the dynamic hypergraph construction (Sec. 3.4,
/// Eqs. 10–11) and its Eq. 5 operator, on flat caller-owned arrays.
///
/// The object is a set of views into a scratch block of `ScratchBytes`
/// bytes; it allocates nothing, calls no ParallelFor and keeps no
/// global state, so a frame-parallel driver can run one instance per
/// ParallelFor chunk. Usage per frame: `Load` the features, then
/// `ComputeDistances`, `SelectKnn`, `RunKMeans` and `AssembleOperator`. The object-level APIs (PairwiseDistances,
/// KnnHyperedges, KMeansClusters, DynamicTopologyHypergraph) wrap the
/// same steps.
///
/// Ordering: distances are ordered totally — NaN after every number,
/// ties by vertex index. For finite distances that is exactly the
/// (distance, index) order; NaN distances are reachable (non-finite
/// weights, or finite features whose Gram overflows to inf - inf) and
/// must not make the selection undefined.
class FrameTopology {
 public:
  /// Scratch bytes one frame needs for V vertices of C channels, k_n
  /// joints per K-NN hyperedge and k_m K-means clusters.
  static size_t ScratchBytes(int64_t v, int64_t c, int64_t kn, int64_t km);

  /// Carves the views out of `scratch` (ScratchBytes bytes, 64-byte
  /// aligned). Requires 1 <= kn <= V and 1 <= km <= V.
  FrameTopology(void* scratch, int64_t v, int64_t c, int64_t kn, int64_t km);

  /// Loads the frame's vertex features: vertex j's channel p is
  /// x[j * vertex_stride + p * channel_stride] (a (V, C) row-major
  /// matrix is (C, 1); a frame of an (N, C, T, V) map is (1, T·V)).
  void Load(const float* x, int64_t vertex_stride, int64_t channel_stride);

  /// Gram matrix G = X X^T through the same serial GEMM kernel MatMul
  /// picks for (V, C, V), then dist(i, j) = sqrt(max(G_ii + G_jj -
  /// 2 G_ij, 0)) in double with an exact zero diagonal (Eq. 11).
  void ComputeDistances();
  /// Pairwise distance matrix (V, V), valid after ComputeDistances.
  const float* distances() const { return dist_; }

  /// K-NN "common information" hyperedges: edge i is vertex i followed
  /// by its k_n - 1 nearest other vertices in ascending order.
  void SelectKnn();
  /// Edge i's k_n vertices, valid after SelectKnn.
  const int64_t* knn_edge(int64_t i) const { return knn_ + i * kn_; }

  /// Medoid K-means "global information" hyperedges: k_m initial
  /// medoids drawn by a partial Fisher–Yates shuffle from `rng` (then
  /// sorted), nearest-medoid assignment (ties to the lower cluster),
  /// empty clusters refilled with the vertex farthest from its own
  /// medoid, each medoid moved to the member of minimal mean distance,
  /// until the medoids stop moving or `max_iters` rounds ran.
  void RunKMeans(Rng& rng, int64_t max_iters);
  /// Cluster c's members, in insertion order, valid after RunKMeans.
  const int64_t* cluster(int64_t c) const { return members_ + c * v_; }
  int64_t cluster_size(int64_t c) const { return counts_[c]; }
  int64_t medoid(int64_t c) const { return medoids_[c]; }
  int64_t kmeans_iterations() const { return iterations_; }
  bool kmeans_converged() const { return converged_; }

  /// Writes Omega = Dv^-1/2 H W De^-1 H^T Dv^-1/2 (V, V) of the union of
  /// the K-NN edges (first) and the clusters, with unit weights, into
  /// `out`. Each entry is one double accumulation over the hyperedges
  /// in ascending edge order — the terms, and the order, of the dense
  /// and CSR NormalizedHypergraphOperator paths — so the bits match.
  void AssembleOperator(float* out);

 private:
  int64_t v_, c_, kn_, km_;
  float* features_;  // (V, C) row-major: the Gram's A operand
  float* packed_;    // X^T as its B operand (packed panels or row-major)
  float* gram_;
  float* dist_;
  int64_t* knn_;       // (V, kn)
  int64_t* members_;   // (km, V): cluster c in row c
  int64_t* counts_;    // (km)
  int64_t* medoids_;   // (km)
  int64_t* next_medoids_;  // (km)
  int64_t* assignment_;    // (V); doubles as the Fisher–Yates pool
  float* inv_sqrt_degree_;  // (V)
  double* acc_;             // (V, V)
  int64_t iterations_ = 0;
  bool converged_ = false;
};

/// \brief The `k` nearest vertices to `self` other than itself, by the
/// total (distance, index) order with NaN last, ascending, into `out`.
/// `row` is self's distance row (V). Requires 0 <= k <= V - 1.
void SelectNearest(const float* row, int64_t v, int64_t self, int64_t k,
                   int64_t* out);

/// \brief Runs `fn(FrameTopology&)` on row features (V, C) with the
/// distances already computed; the scratch is borrowed from the
/// kernel-op arena for the call. Entry point of the object-level
/// wrappers (one frame, not a hot path).
template <typename Fn>
void WithFrameTopology(const Tensor& features, int64_t kn, int64_t km,
                       Fn&& fn) {
  DHGCN_CHECK_EQ(features.ndim(), 2);
  const int64_t v = features.dim(0), c = features.dim(1);
  Workspace& scratch = detail::KernelOpScratch();
  const size_t bytes = FrameTopology::ScratchBytes(v, c, kn, km);
  Tensor block = scratch.Acquire(
      {static_cast<int64_t>(bytes / sizeof(float))});
  FrameTopology frame(block.data(), v, c, kn, km);
  frame.Load(features.data(), c, 1);
  frame.ComputeDistances();
  fn(frame);
  scratch.Reset();
}

}  // namespace dhgcn

#endif  // DHGCN_HYPERGRAPH_FRAME_TOPOLOGY_H_
