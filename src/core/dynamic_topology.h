#ifndef DHGCN_CORE_DYNAMIC_TOPOLOGY_H_
#define DHGCN_CORE_DYNAMIC_TOPOLOGY_H_

#include "hypergraph/hypergraph.h"
#include "tensor/tensor.h"

namespace dhgcn {

class Workspace;

/// Parameters of the dynamic-topology construction (Sec. 3.4).
struct DynamicTopologyOptions {
  /// k_n: joints per common-information (K-NN) hyperedge. Paper best: 3.
  int64_t kn = 3;
  /// k_m: number of global-information (K-means) hyperedges. Paper best: 4.
  int64_t km = 4;
  /// Iteration cap for the medoid K-means.
  int64_t kmeans_max_iters = 20;
  /// Base seed for the (deterministic) K-means initialization; combined
  /// with the frame index so results are reproducible across runs.
  uint64_t seed = 977;
};

/// \brief Builds the dynamic-topology hypergraph for one frame's vertex
/// features (V, F): the union of the K-NN "common information" hyperedges
/// and the K-means "global information" hyperedges.
Hypergraph DynamicTopologyHypergraph(const Tensor& features,
                                     const DynamicTopologyOptions& options,
                                     uint64_t frame_seed = 0);

/// \brief Dynamic-topology operators for a feature map (N, C, T, V):
/// per sample and frame, vertices are embedded with their C-dim feature
/// columns, the hypergraph is constructed, and the normalized hypergraph
/// operator (Eq. 5) of shape (V, V) is emitted -> (N, T, V, V).
///
/// The construction (K-NN selection / K-means assignment) is
/// non-differentiable; gradients flow through the returned operators'
/// *application* to features, not through the topology itself.
Tensor DynamicTopologyOperators(const Tensor& features,
                                const DynamicTopologyOptions& options,
                                Workspace* ws = nullptr);

/// \brief DynamicTopologyOperators into a pre-shaped (N, T, V, V) `out`.
///
/// One flat pass over the N·T frames, partitioned across the ThreadPool:
/// each frame is gathered, its distances computed once and its K-NN,
/// K-means and operator built in scratch carved from one kernel-op arena
/// block (no per-frame allocation). A frame's output depends only on its
/// features and its index t, so the result is bit-identical for every
/// thread count (see DESIGN.md, "Dynamic topology kernel").
void DynamicTopologyOperatorsInto(const Tensor& features,
                                  const DynamicTopologyOptions& options,
                                  Tensor* out);

}  // namespace dhgcn

#endif  // DHGCN_CORE_DYNAMIC_TOPOLOGY_H_
