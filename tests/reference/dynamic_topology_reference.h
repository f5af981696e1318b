// Frozen oracle for the dynamic-topology construction (Sec. 3.4) and the
// per-frame dynamic vertex mix: the object-based per-frame composition
// (PairwiseDistances -> stable-sorted K-NN -> medoid K-means -> Hypergraph
// union -> NormalizedHypergraphOperator) and the scalar dot-product mix
// loop, kept so the flat production kernels can be asserted memcmp-equal
// against them. The arithmetic is the pre-flattening code's, operation
// for operation; its row- and node-parallel loops run serially here
// (they wrote disjoint outputs, so the bits are the same). Test-only;
// never linked into the library.
#ifndef DHGCN_TESTS_REFERENCE_DYNAMIC_TOPOLOGY_REFERENCE_H_
#define DHGCN_TESTS_REFERENCE_DYNAMIC_TOPOLOGY_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "core/dynamic_topology.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/kmeans.h"
#include "tensor/tensor.h"

namespace dhgcn {
namespace reference {

/// Gram-formulated pairwise distances of row features (V, F).
Tensor PairwiseDistances(const Tensor& features);

/// The k nearest other vertices of `vertex`, stable-sorted by distance.
/// Undefined for NaN distances (the comparator is not a strict weak
/// order there), which is why the oracle is only fed finite features.
std::vector<int64_t> NearestNeighbors(const Tensor& distances, int64_t vertex,
                                      int64_t k);

std::vector<Hyperedge> KnnHyperedges(const Tensor& features, int64_t k);

KMeansResult KMeansClusters(const Tensor& features, int64_t k, Rng& rng,
                            int64_t max_iters);

Hypergraph DynamicTopologyHypergraph(const Tensor& features,
                                     const DynamicTopologyOptions& options,
                                     uint64_t frame_seed);

/// (N, C, T, V) features -> (N, T, V, V) Eq. 5 operators, frame by frame.
Tensor DynamicTopologyOperators(const Tensor& features,
                                const DynamicTopologyOptions& options);

/// (N, C, T, V) coords -> (N, T, V, V) Eq. 9 joint-weight operators:
/// MovingDistances, then per frame a JointWeightIncidence tensor and its
/// routed (CSR or dense) Imp Imp^T product.
Tensor DynamicJointWeightOperators(const Tensor& coords,
                                   const Hypergraph& hypergraph);

/// Y[n,c,t,v] = sum_u Ops[n,t,v,u] X[n,c,t,u]: one ascending-u double dot
/// per output element.
Tensor DynamicVertexMixDense(const Tensor& input, const Tensor& ops);

}  // namespace reference
}  // namespace dhgcn

#endif  // DHGCN_TESTS_REFERENCE_DYNAMIC_TOPOLOGY_REFERENCE_H_
