#include "core/dynamic_joint_weight.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"
#include "tensor/gemm_kernel.h"
#include "tensor/workspace.h"

namespace dhgcn {

namespace {

// Eq. 6 for frame `tt` of sample `b` of coords (N, C, T, V) into `dist`
// (V): distance to the previous frame over the first min(C, 3)
// channels; frame 0 takes frame 1's distances so it is weighted too.
void FrameMovingDistances(const Tensor& coords, int64_t b, int64_t tt,
                          float* dist) {
  const int64_t c = coords.dim(1), t = coords.dim(2), v = coords.dim(3);
  const int64_t coord_channels = std::min<int64_t>(c, 3);
  const int64_t from = tt == 0 ? 1 : tt;
  const float* px = coords.data();
  for (int64_t j = 0; j < v; ++j) {
    double acc = 0.0;
    for (int64_t ch = 0; ch < coord_channels; ++ch) {
      const float* xplane = px + (b * c + ch) * t * v;
      double diff = static_cast<double>(xplane[from * v + j]) -
                    xplane[(from - 1) * v + j];
      acc += diff * diff;
    }
    dist[j] = static_cast<float>(std::sqrt(acc));
  }
}

// Imp (V, E) of one frame into the zeroed row-major `imp` (Eqs. 7–8).
void FillJointWeightIncidence(const float* frame_distances,
                              const Hypergraph& hypergraph, float* imp) {
  const int64_t num_edges = hypergraph.num_edges();
  constexpr float kEps = 1e-6f;
  for (int64_t e = 0; e < num_edges; ++e) {
    const Hyperedge& edge = hypergraph.edges()[static_cast<size_t>(e)];
    double total = 0.0;
    for (int64_t vtx : edge) total += frame_distances[vtx];
    if (total < kEps) {
      // No motion on this hyperedge: uniform share.
      float uniform = 1.0f / static_cast<float>(edge.size());
      for (int64_t vtx : edge) imp[vtx * num_edges + e] = uniform;
    } else {
      for (int64_t vtx : edge) {
        imp[vtx * num_edges + e] =
            static_cast<float>(frame_distances[vtx] / total);
      }
    }
  }
}

// Omega = Imp Imp^T (Eq. 9) of one frame into `out` (V, V), edge by edge
// in ascending order: each pair (a, b) of an edge's distinct members adds
// double(imp[a][e]) * imp[b][e] to a double accumulator. The dense
// (GemmTransposedB) and CSR (SpMMTransposedBInto) Imp Imp^T products take
// the same terms in the same order plus zero products off the edge,
// which are exact no-ops in the double sum, so for finite Imp the bits
// are theirs.
// `members` (V) and `acc` (V, V) are scratch.
void JointWeightOperatorFromEdges(const float* imp,
                                  const Hypergraph& hypergraph,
                                  int64_t* members, double* acc, float* out) {
  const int64_t v = hypergraph.num_vertices();
  const int64_t num_edges = hypergraph.num_edges();
  std::fill(acc, acc + v * v, 0.0);
  for (int64_t e = 0; e < num_edges; ++e) {
    int64_t size = 0;
    for (int64_t vtx : hypergraph.edges()[static_cast<size_t>(e)]) {
      if (std::find(members, members + size, vtx) == members + size) {
        members[size++] = vtx;
      }
    }
    for (int64_t a = 0; a < size; ++a) {
      const double left = imp[members[a] * num_edges + e];
      double* arow = acc + members[a] * v;
      for (int64_t b = 0; b < size; ++b) {
        arow[members[b]] += left * imp[members[b] * num_edges + e];
      }
    }
  }
  for (int64_t i = 0; i < v * v; ++i) out[i] = static_cast<float>(acc[i]);
}

}  // namespace

Tensor MovingDistances(const Tensor& coords, Workspace* ws) {
  DHGCN_CHECK_EQ(coords.ndim(), 4);
  int64_t n = coords.dim(0), t = coords.dim(2), v = coords.dim(3);
  DHGCN_CHECK_GE(t, 2);
  Tensor dist = NewTensor(ws, {n, t, v});
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t tt = 0; tt < t; ++tt) {
      FrameMovingDistances(coords, b, tt, dist.data() + (b * t + tt) * v);
    }
  }
  return dist;
}

Tensor JointWeightIncidence(const Tensor& frame_distances,
                            const Hypergraph& hypergraph, Workspace* ws) {
  DHGCN_CHECK_EQ(frame_distances.ndim(), 1);
  DHGCN_CHECK_EQ(frame_distances.dim(0), hypergraph.num_vertices());
  Tensor imp = NewZeroedTensor(
      ws, {hypergraph.num_vertices(), hypergraph.num_edges()});
  FillJointWeightIncidence(frame_distances.data(), hypergraph, imp.data());
  return imp;
}

Tensor DynamicJointWeightOperators(const Tensor& coords,
                                   const Hypergraph& hypergraph,
                                   Workspace* ws) {
  DHGCN_CHECK_EQ(coords.ndim(), 4);
  Tensor ops = NewTensor(
      ws, {coords.dim(0), coords.dim(2), coords.dim(3), coords.dim(3)});
  DynamicJointWeightOperatorsInto(coords, hypergraph, &ops);
  return ops;
}

void DynamicJointWeightOperatorsInto(const Tensor& coords,
                                     const Hypergraph& hypergraph,
                                     Tensor* out) {
  DHGCN_CHECK_EQ(coords.ndim(), 4);
  const int64_t n = coords.dim(0), t = coords.dim(2), v = coords.dim(3);
  DHGCN_CHECK_EQ(v, hypergraph.num_vertices());
  DHGCN_CHECK_GE(t, 2);
  DHGCN_CHECK(ShapesEqual(out->shape(), {n, t, v, v}));
  const int64_t num_edges = hypergraph.num_edges();
  // One frame's operator accumulator (V, V), edge members (V), moving
  // distances (V) and incidence (V, E), reused across frames: no
  // per-frame allocation.
  Workspace& scratch = detail::KernelOpScratch();
  Tensor block = scratch.Acquire({2 * v * v + 2 * v + v + v * num_edges});
  double* acc = reinterpret_cast<double*>(block.data());
  int64_t* members = reinterpret_cast<int64_t*>(acc + v * v);
  float* dist = reinterpret_cast<float*>(members + v);
  float* imp = dist + v;
  float* po = out->data();
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t tt = 0; tt < t; ++tt) {
      FrameMovingDistances(coords, b, tt, dist);
      std::fill(imp, imp + v * num_edges, 0.0f);
      FillJointWeightIncidence(dist, hypergraph, imp);
      JointWeightOperatorFromEdges(imp, hypergraph, members, acc,
                                   po + (b * t + tt) * v * v);
    }
  }
  scratch.Reset();
}

Tensor StrideOperatorsInTime(const Tensor& ops, int64_t stride,
                             Workspace* ws) {
  DHGCN_CHECK_EQ(ops.ndim(), 4);
  DHGCN_CHECK_GT(stride, 0);
  if (stride == 1) return ops;
  int64_t n = ops.dim(0), t = ops.dim(1), v = ops.dim(2);
  int64_t out_t = (t - 1) / stride + 1;
  Tensor out = NewTensor(ws, {n, out_t, v, v});
  const float* pi = ops.data();
  float* po = out.data();
  int64_t mat = v * v;
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t tt = 0; tt < out_t; ++tt) {
      const float* src = pi + (b * t + tt * stride) * mat;
      std::copy(src, src + mat, po + (b * out_t + tt) * mat);
    }
  }
  return out;
}

}  // namespace dhgcn
