#include "core/dynamic_topology.h"

#include "base/check.h"
#include "base/rng.h"
#include "hypergraph/frame_topology.h"
#include "tensor/gemm_kernel.h"
#include "tensor/workspace.h"

namespace dhgcn {

namespace {

// The K-means seed of frame t (every sample's frame t draws the same
// initial medoids).
Rng FrameRng(const DynamicTopologyOptions& options, uint64_t frame_seed) {
  return Rng(options.seed * 1000003ULL + frame_seed);
}

}  // namespace

Hypergraph DynamicTopologyHypergraph(const Tensor& features,
                                     const DynamicTopologyOptions& options,
                                     uint64_t frame_seed) {
  DHGCN_CHECK_EQ(features.ndim(), 2);
  const int64_t v = features.dim(0);
  std::vector<Hyperedge> edges;
  edges.reserve(static_cast<size_t>(v + options.km));
  WithFrameTopology(features, options.kn, options.km,
                    [&](FrameTopology& frame) {
                      frame.SelectKnn();
                      Rng rng = FrameRng(options, frame_seed);
                      frame.RunKMeans(rng, options.kmeans_max_iters);
                      for (int64_t i = 0; i < v; ++i) {
                        edges.emplace_back(frame.knn_edge(i),
                                           frame.knn_edge(i) + options.kn);
                      }
                      for (int64_t c = 0; c < options.km; ++c) {
                        edges.emplace_back(
                            frame.cluster(c),
                            frame.cluster(c) + frame.cluster_size(c));
                      }
                    });
  return Hypergraph(v, std::move(edges));
}

Tensor DynamicTopologyOperators(const Tensor& features,
                                const DynamicTopologyOptions& options,
                                Workspace* ws) {
  DHGCN_CHECK_EQ(features.ndim(), 4);
  Tensor ops = NewTensor(
      ws, {features.dim(0), features.dim(2), features.dim(3), features.dim(3)});
  DynamicTopologyOperatorsInto(features, options, &ops);
  return ops;
}

void DynamicTopologyOperatorsInto(const Tensor& features,
                                  const DynamicTopologyOptions& options,
                                  Tensor* out) {
  DHGCN_CHECK_EQ(features.ndim(), 4);
  const int64_t n = features.dim(0), c = features.dim(1),
                t = features.dim(2), v = features.dim(3);
  DHGCN_CHECK(ShapesEqual(out->shape(), {n, t, v, v}));
  DHGCN_CHECK(options.kn >= 1 && options.kn <= v);
  DHGCN_CHECK(options.km >= 1 && options.km <= v);
  const float* px = features.data();
  float* po = out->data();
  // Whole frames per chunk; each chunk runs its own FrameTopology on its
  // own slice of the shared scratch block.
  detail::ParallelForFrames(
      n * t, v * v * c,
      FrameTopology::ScratchBytes(v, c, options.kn, options.km),
      [&](void* frame_scratch, int64_t f0, int64_t f1) {
        FrameTopology frame(frame_scratch, v, c, options.kn, options.km);
        for (int64_t f = f0; f < f1; ++f) {
          const int64_t b = f / t, tt = f % t;
          frame.Load(px + (b * c * t + tt) * v, 1, t * v);
          frame.ComputeDistances();
          frame.SelectKnn();
          Rng rng = FrameRng(options, static_cast<uint64_t>(tt));
          frame.RunKMeans(rng, options.kmeans_max_iters);
          frame.AssembleOperator(po + f * v * v);
        }
      });
}

}  // namespace dhgcn
