#include "reference/dynamic_topology_reference.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/check.h"
#include "hypergraph/hypergraph_conv.h"
#include "tensor/gemm_kernel.h"
#include "tensor/linalg.h"
#include "tensor/sparse.h"
#include "tensor/sparse_router.h"

namespace dhgcn {
namespace reference {

Tensor PairwiseDistances(const Tensor& features) {
  DHGCN_CHECK_EQ(features.ndim(), 2);
  int64_t v = features.dim(0), f = features.dim(1);
  Tensor dist({v, v});
  const float* px = features.data();
  float* pd = dist.data();
  // dist(i, j) = sqrt(G_ii + G_jj - 2 G_ij) for the Gram matrix
  // G = X X^T, computed by the library matmul.
  Tensor xt({f, v});
  detail::GemmPackTransposed(px, v, f, xt.data());
  Tensor gram({v, v});
  MatMulInto(features, xt, &gram);
  const float* pg = gram.data();
  for (int64_t i = 0; i < v; ++i) {
    const double gii = pg[i * v + i];
    float* drow = pd + i * v;
    const float* grow = pg + i * v;
    for (int64_t j = 0; j < v; ++j) {
      const double g2 =
          gii + pg[j * v + j] - 2.0 * static_cast<double>(grow[j]);
      drow[j] = static_cast<float>(std::sqrt(std::max(g2, 0.0)));
    }
    drow[i] = 0.0f;
  }
  return dist;
}

std::vector<int64_t> NearestNeighbors(const Tensor& distances, int64_t vertex,
                                      int64_t k) {
  int64_t v = distances.dim(0);
  std::vector<int64_t> order;
  order.reserve(static_cast<size_t>(v - 1));
  for (int64_t j = 0; j < v; ++j) {
    if (j != vertex) order.push_back(j);
  }
  const float* row = distances.data() + vertex * v;
  std::stable_sort(order.begin(), order.end(), [row](int64_t a, int64_t b) {
    if (row[a] != row[b]) return row[a] < row[b];
    return a < b;
  });
  order.resize(static_cast<size_t>(k));
  return order;
}

std::vector<Hyperedge> KnnHyperedges(const Tensor& features, int64_t k) {
  int64_t v = features.dim(0);
  Tensor dist = reference::PairwiseDistances(features);
  std::vector<Hyperedge> edges;
  edges.reserve(static_cast<size_t>(v));
  for (int64_t i = 0; i < v; ++i) {
    Hyperedge e = {i};
    std::vector<int64_t> nn = reference::NearestNeighbors(dist, i, k - 1);
    e.insert(e.end(), nn.begin(), nn.end());
    edges.push_back(std::move(e));
  }
  return edges;
}

namespace {

int64_t ClusterMedoid(const Tensor& dist, const Hyperedge& members) {
  int64_t v = dist.dim(0);
  int64_t best = members[0];
  double best_mean = std::numeric_limits<double>::infinity();
  for (int64_t candidate : members) {
    double total = 0.0;
    for (int64_t other : members) {
      total += dist.flat(candidate * v + other);
    }
    double mean = total / static_cast<double>(members.size());
    if (mean < best_mean || (mean == best_mean && candidate < best)) {
      best_mean = mean;
      best = candidate;
    }
  }
  return best;
}

}  // namespace

KMeansResult KMeansClusters(const Tensor& features, int64_t k, Rng& rng,
                            int64_t max_iters) {
  int64_t v = features.dim(0);
  Tensor dist = reference::PairwiseDistances(features);
  KMeansResult result;
  result.medoids = rng.SampleWithoutReplacement(v, k);
  std::sort(result.medoids.begin(), result.medoids.end());

  const float* pdist = dist.data();
  std::vector<int64_t> assignment(static_cast<size_t>(v));
  for (int64_t iter = 0; iter < max_iters; ++iter) {
    result.iterations = iter + 1;
    for (int64_t node = 0; node < v; ++node) {
      int64_t best_cluster = 0;
      float best_dist = pdist[node * v + result.medoids[0]];
      for (int64_t c = 1; c < k; ++c) {
        float d = pdist[node * v + result.medoids[static_cast<size_t>(c)]];
        if (d < best_dist) {
          best_dist = d;
          best_cluster = c;
        }
      }
      assignment[static_cast<size_t>(node)] = best_cluster;
    }
    std::vector<Hyperedge> clusters(static_cast<size_t>(k));
    for (int64_t node = 0; node < v; ++node) {
      clusters[static_cast<size_t>(assignment[static_cast<size_t>(node)])]
          .push_back(node);
    }
    for (size_t c = 0; c < clusters.size(); ++c) {
      if (!clusters[c].empty()) continue;
      int64_t steal_cluster = -1;
      int64_t steal_node = -1;
      float steal_dist = -1.0f;
      for (size_t c2 = 0; c2 < clusters.size(); ++c2) {
        if (clusters[c2].size() <= 1) continue;
        for (int64_t node : clusters[c2]) {
          float d = dist.flat(node * v + result.medoids[c2]);
          if (d > steal_dist) {
            steal_dist = d;
            steal_node = node;
            steal_cluster = static_cast<int64_t>(c2);
          }
        }
      }
      DHGCN_CHECK_GE(steal_node, 0);
      auto& donor = clusters[static_cast<size_t>(steal_cluster)];
      donor.erase(std::find(donor.begin(), donor.end(), steal_node));
      clusters[c].push_back(steal_node);
    }
    std::vector<int64_t> new_medoids(static_cast<size_t>(k));
    for (size_t c = 0; c < clusters.size(); ++c) {
      new_medoids[c] = ClusterMedoid(dist, clusters[c]);
    }
    result.clusters = std::move(clusters);
    if (new_medoids == result.medoids) {
      result.converged = true;
      break;
    }
    result.medoids = std::move(new_medoids);
  }
  return result;
}

Hypergraph DynamicTopologyHypergraph(const Tensor& features,
                                     const DynamicTopologyOptions& options,
                                     uint64_t frame_seed) {
  int64_t v = features.dim(0);
  std::vector<Hyperedge> common =
      reference::KnnHyperedges(features, options.kn);
  Rng kmeans_rng(options.seed * 1000003ULL + frame_seed);
  std::vector<Hyperedge> global =
      reference::KMeansClusters(features, options.km, kmeans_rng,
                     options.kmeans_max_iters)
          .clusters;
  Hypergraph common_graph(v, std::move(common));
  Hypergraph global_graph(v, std::move(global));
  return common_graph.UnionWith(global_graph);
}

Tensor DynamicTopologyOperators(const Tensor& features,
                                const DynamicTopologyOptions& options) {
  int64_t n = features.dim(0), c = features.dim(1), t = features.dim(2),
          v = features.dim(3);
  Tensor ops({n, t, v, v});
  const float* px = features.data();
  float* po = ops.data();
  int64_t plane = t * v;
  Tensor frame_features({v, c});
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t tt = 0; tt < t; ++tt) {
      for (int64_t j = 0; j < v; ++j) {
        for (int64_t ch = 0; ch < c; ++ch) {
          frame_features.at(j, ch) = px[(b * c + ch) * plane + tt * v + j];
        }
      }
      Hypergraph hypergraph = reference::DynamicTopologyHypergraph(
          frame_features, options, static_cast<uint64_t>(tt));
      Tensor op = NormalizedHypergraphOperator(hypergraph);
      std::copy(op.data(), op.data() + v * v, po + (b * t + tt) * v * v);
    }
  }
  return ops;
}

namespace {

Tensor MovingDistances(const Tensor& coords) {
  int64_t n = coords.dim(0), c = coords.dim(1), t = coords.dim(2),
          v = coords.dim(3);
  int64_t coord_channels = std::min<int64_t>(c, 3);
  Tensor dist({n, t, v});
  const float* px = coords.data();
  float* pd = dist.data();
  int64_t plane = t * v;
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t tt = 1; tt < t; ++tt) {
      for (int64_t j = 0; j < v; ++j) {
        double acc = 0.0;
        for (int64_t ch = 0; ch < coord_channels; ++ch) {
          const float* xplane = px + (b * c + ch) * plane;
          double diff = static_cast<double>(xplane[tt * v + j]) -
                        xplane[(tt - 1) * v + j];
          acc += diff * diff;
        }
        pd[(b * t + tt) * v + j] = static_cast<float>(std::sqrt(acc));
      }
    }
    for (int64_t j = 0; j < v; ++j) {
      pd[(b * t + 0) * v + j] = pd[(b * t + 1) * v + j];
    }
  }
  return dist;
}

Tensor JointWeightIncidence(const Tensor& frame_distances,
                            const Hypergraph& hypergraph) {
  int64_t num_edges = hypergraph.num_edges();
  Tensor imp({hypergraph.num_vertices(), num_edges});
  constexpr float kEps = 1e-6f;
  for (int64_t e = 0; e < num_edges; ++e) {
    const Hyperedge& edge = hypergraph.edges()[static_cast<size_t>(e)];
    double total = 0.0;
    for (int64_t vtx : edge) total += frame_distances.flat(vtx);
    if (total < kEps) {
      float uniform = 1.0f / static_cast<float>(edge.size());
      for (int64_t vtx : edge) imp.at(vtx, e) = uniform;
    } else {
      for (int64_t vtx : edge) {
        imp.at(vtx, e) =
            static_cast<float>(frame_distances.flat(vtx) / total);
      }
    }
  }
  return imp;
}

Tensor WeightedIncidenceOperator(const Tensor& imp) {
  Tensor out({imp.dim(0), imp.dim(0)});
  double density = SparseRouter::MeasureDensity(imp);
  if (SparseRouter::Get().ShouldRoute(density)) {
    CsrMatrix csr = CsrMatrix::FromDense(imp);
    SpMMTransposedBInto(imp, csr, &out);
  } else {
    MatMulTransposedBInto(imp, imp, &out);
  }
  return out;
}

}  // namespace

Tensor DynamicJointWeightOperators(const Tensor& coords,
                                   const Hypergraph& hypergraph) {
  int64_t n = coords.dim(0), t = coords.dim(2), v = coords.dim(3);
  Tensor distances = reference::MovingDistances(coords);
  Tensor ops({n, t, v, v});
  float* po = ops.data();
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t tt = 0; tt < t; ++tt) {
      Tensor frame({v});
      const float* pd = distances.data() + (b * t + tt) * v;
      std::copy(pd, pd + v, frame.data());
      Tensor imp = reference::JointWeightIncidence(frame, hypergraph);
      Tensor op = reference::WeightedIncidenceOperator(imp);
      std::copy(op.data(), op.data() + v * v, po + (b * t + tt) * v * v);
    }
  }
  return ops;
}

Tensor DynamicVertexMixDense(const Tensor& input, const Tensor& ops) {
  int64_t n = input.dim(0), c = input.dim(1), t = input.dim(2),
          v = input.dim(3);
  Tensor out(input.shape());
  const float* px = input.data();
  const float* pops = ops.data();
  float* po = out.data();
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t tt = 0; tt < t; ++tt) {
      const float* m = pops + (b * t + tt) * v * v;
      for (int64_t ch = 0; ch < c; ++ch) {
        const float* xrow = px + ((b * c + ch) * t + tt) * v;
        float* orow = po + ((b * c + ch) * t + tt) * v;
        for (int64_t vi = 0; vi < v; ++vi) {
          const float* mrow = m + vi * v;
          double acc = 0.0;
          for (int64_t u = 0; u < v; ++u) {
            acc += static_cast<double>(mrow[u]) * xrow[u];
          }
          orow[vi] = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

}  // namespace reference
}  // namespace dhgcn
