#include "hypergraph/kmeans.h"

#include "hypergraph/frame_topology.h"

namespace dhgcn {

KMeansResult KMeansClusters(const Tensor& features, int64_t k, Rng& rng,
                            int64_t max_iters) {
  KMeansResult result;
  WithFrameTopology(features, 1, k, [&](FrameTopology& frame) {
    frame.RunKMeans(rng, max_iters);
    result.clusters.reserve(static_cast<size_t>(k));
    result.medoids.reserve(static_cast<size_t>(k));
    for (int64_t c = 0; c < k; ++c) {
      result.clusters.emplace_back(frame.cluster(c),
                                   frame.cluster(c) + frame.cluster_size(c));
      result.medoids.push_back(frame.medoid(c));
    }
    result.iterations = frame.kmeans_iterations();
    result.converged = frame.kmeans_converged();
  });
  return result;
}

std::vector<Hyperedge> KMeansHyperedges(const Tensor& features, int64_t k,
                                        Rng& rng, int64_t max_iters) {
  return KMeansClusters(features, k, rng, max_iters).clusters;
}

}  // namespace dhgcn
