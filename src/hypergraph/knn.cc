#include "hypergraph/knn.h"

#include <algorithm>

#include "base/check.h"
#include "hypergraph/frame_topology.h"
#include "tensor/workspace.h"

namespace dhgcn {

Tensor PairwiseDistances(const Tensor& features, Workspace* ws) {
  DHGCN_CHECK_EQ(features.ndim(), 2);
  const int64_t v = features.dim(0);
  Tensor dist = NewTensor(ws, {v, v});
  WithFrameTopology(features, 1, 1, [&](FrameTopology& frame) {
    std::copy(frame.distances(), frame.distances() + v * v, dist.data());
  });
  return dist;
}

std::vector<int64_t> NearestNeighbors(const Tensor& distances, int64_t vertex,
                                      int64_t k) {
  DHGCN_CHECK_EQ(distances.ndim(), 2);
  int64_t v = distances.dim(0);
  DHGCN_CHECK(vertex >= 0 && vertex < v);
  DHGCN_CHECK(k >= 0 && k <= v - 1);
  std::vector<int64_t> order(static_cast<size_t>(k));
  SelectNearest(distances.data() + vertex * v, v, vertex, k, order.data());
  return order;
}

std::vector<Hyperedge> KnnHyperedges(const Tensor& features, int64_t k) {
  DHGCN_CHECK_EQ(features.ndim(), 2);
  const int64_t v = features.dim(0);
  std::vector<Hyperedge> edges;
  edges.reserve(static_cast<size_t>(v));
  WithFrameTopology(features, k, 1, [&](FrameTopology& frame) {
    frame.SelectKnn();
    for (int64_t i = 0; i < v; ++i) {
      edges.emplace_back(frame.knn_edge(i), frame.knn_edge(i) + k);
    }
  });
  return edges;
}

}  // namespace dhgcn
