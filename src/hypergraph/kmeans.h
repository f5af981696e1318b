#ifndef DHGCN_HYPERGRAPH_KMEANS_H_
#define DHGCN_HYPERGRAPH_KMEANS_H_

#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "hypergraph/hypergraph.h"
#include "tensor/tensor.h"

namespace dhgcn {

/// \brief Result of a medoid-based K-means run over vertex features.
struct KMeansResult {
  /// Disjoint clusters covering all vertices; cluster i's vertices.
  std::vector<Hyperedge> clusters;
  /// Medoid vertex of each cluster.
  std::vector<int64_t> medoids;
  /// Iterations executed until convergence (or the cap).
  int64_t iterations = 0;
  /// True when medoids stopped moving before the iteration cap.
  bool converged = false;
};

/// \brief Medoid-style K-means over vertices (Sec. 3.4, "global
/// information" hyperedges).
///
/// Following the paper: k random vertices are chosen as initial centroids;
/// every vertex is assigned to its nearest centroid; each cluster's new
/// centroid is the member vertex with the smallest mean distance to the
/// other members; repeat until the centroids stop moving (the paper's
/// "change of the position of the centroid is 0") or `max_iters` is hit.
/// Clusters that become empty are reseeded with the vertex farthest from
/// its current centroid so exactly k non-empty clusters are returned
/// (NaN distances count as farthest).
///
/// `features` is (V, F); requires 1 <= k <= V.
KMeansResult KMeansClusters(const Tensor& features, int64_t k, Rng& rng,
                            int64_t max_iters = 20);

/// Convenience: the clusters of KMeansClusters as hyperedges.
std::vector<Hyperedge> KMeansHyperedges(const Tensor& features, int64_t k,
                                        Rng& rng, int64_t max_iters = 20);

}  // namespace dhgcn

#endif  // DHGCN_HYPERGRAPH_KMEANS_H_
