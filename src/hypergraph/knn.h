#ifndef DHGCN_HYPERGRAPH_KNN_H_
#define DHGCN_HYPERGRAPH_KNN_H_

#include <cstdint>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "tensor/tensor.h"

namespace dhgcn {

class Workspace;

/// \brief Pairwise Euclidean distance matrix (V, V) of row-vector features
/// (V, F) (Eq. 11, generalized from 3-D coordinates to F-dim features).
/// With a workspace, the matrix is arena-backed (valid until Reset).
Tensor PairwiseDistances(const Tensor& features, Workspace* ws = nullptr);

/// \brief K-NN hyperedge construction (Sec. 3.4, "common information"
/// hyperedges).
///
/// For each vertex i, the hyperedge e_i consists of i plus its k-1 nearest
/// other vertices by Euclidean distance in `features` (V, F), so every
/// hyperedge has exactly k vertices — the paper's "set containing N
/// hyperedges with k_n nodes on each hyperedge". Requires 1 <= k <= V.
/// Ties are broken toward lower vertex index for determinism; NaN
/// distances rank after every number.
std::vector<Hyperedge> KnnHyperedges(const Tensor& features, int64_t k);

/// \brief Indices of the `k` nearest other vertices of `vertex` (excluding
/// itself), sorted by ascending distance.
std::vector<int64_t> NearestNeighbors(const Tensor& distances, int64_t vertex,
                                      int64_t k);

}  // namespace dhgcn

#endif  // DHGCN_HYPERGRAPH_KNN_H_
