#include "hypergraph/hypergraph_conv.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"
#include "base/logging.h"
#include "base/string_util.h"
#include "base/thread_pool.h"
#include "plan/plan_builder.h"
#include "tensor/gemm_kernel.h"
#include "tensor/linalg.h"
#include "tensor/sparse_router.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"

namespace dhgcn {

namespace {

// Process-wide CSR scratch for NormalizedHypergraphOperator (capacity
// reused across calls). Built and consumed on the compute-driving
// thread only — the library is externally single-threaded (see
// ThreadPool), and concurrent serve workers serialize compute behind
// the server's compute lease — so the Meyers static needs no guard,
// same as the GEMM packing scratch.
CsrMatrix& IncidenceCsrScratch() {
  static CsrMatrix scratch(1, 1);
  return scratch;
}

// First-decision-only debug log: the routed ops run on every forward
// step and would otherwise emit thousands of identical lines.
void LogRouteOnce(bool* logged, const char* what, double density,
                  bool routed) {
  if (logged == nullptr || *logged) return;
  *logged = true;
  DHGCN_LOG(kDebug) << "sparse-router: " << what << " density=" << density
                    << " threshold="
                    << SparseRouter::Get().density_threshold() << " mode="
                    << SparseModeName(SparseRouter::Get().mode()) << " -> "
                    << (routed ? "csr" : "dense");
}

}  // namespace

Tensor NormalizedHypergraphOperator(const Hypergraph& hypergraph,
                                    Workspace* ws) {
  int64_t nv = hypergraph.num_vertices();
  int64_t ne = hypergraph.num_edges();
  std::vector<float> dv = hypergraph.VertexDegrees();
  std::vector<int64_t> de = hypergraph.EdgeDegrees();
  const std::vector<float>& w = hypergraph.edge_weights();

  // Left factor L = Dv^{-1/2} H W De^{-1}, shape (V, E); then
  // Omega = L * (Dv^{-1/2} H)^T. H is sparse (h(v,e)=1 iff v in e), so
  // the factors are filled straight from the edge lists instead of
  // materializing the incidence matrix.
  Tensor left = NewZeroedTensor(ws, {nv, ne});
  Tensor right = NewZeroedTensor(ws, {nv, ne});
  for (int64_t e = 0; e < ne; ++e) {
    float inv_de = 1.0f / static_cast<float>(de[static_cast<size_t>(e)]);
    for (int64_t v : hypergraph.edges()[static_cast<size_t>(e)]) {
      float inv_sqrt_dv =
          dv[static_cast<size_t>(v)] > 0.0f
              ? 1.0f / std::sqrt(dv[static_cast<size_t>(v)])
              : 0.0f;
      left.at(v, e) = inv_sqrt_dv * w[static_cast<size_t>(e)] * inv_de;
      right.at(v, e) = inv_sqrt_dv;
    }
  }
  Tensor omega = NewTensor(ws, {nv, nv});  // (V, V)
  // Omega[v,u] is an ascending-e double dot of left row v with right
  // row u; compressing `right` and skipping its zeros leaves the dot
  // term-for-term identical (zero products are exact no-ops in the
  // double accumulator), so both branches produce the same bits.
  double density = SparseRouter::MeasureDensity(right);
  bool routed = SparseRouter::Get().ShouldRoute(density);
  static bool logged = false;
  LogRouteOnce(&logged, "NormalizedHypergraphOperator", density, routed);
  if (routed) {
    CsrMatrix& csr = IncidenceCsrScratch();
    csr.AssignFromDense(right);
    SpMMTransposedBInto(left, csr, &omega);
  } else {
    // lint: allow-sparse-route (router dense fallback)
    MatMulTransposedBInto(left, right, &omega);
  }
  return omega;
}

VertexMix::VertexMix(Tensor op, bool learnable)
    : op_(std::move(op)), learnable_(learnable) {
  DHGCN_CHECK_EQ(op_.ndim(), 2);
  DHGCN_CHECK_EQ(op_.dim(0), op_.dim(1));
  op_grad_ = Tensor(op_.shape());
}

Tensor VertexMix::ForwardImpl(const Tensor& input, Workspace* ws) {
  DHGCN_CHECK_EQ(input.ndim(), 4);
  DHGCN_CHECK_EQ(input.dim(3), op_.dim(0));
  cached_input_ = input;
  Tensor out = NewTensor(ws, input.shape());
  MixPlan(input, &out);
  return out;
}

bool VertexMix::RouteSparse() const {
  const SparseRouter& router = SparseRouter::Get();
  if (router.mode() == SparseMode::kOff) return false;
  if (learnable_ || !csr_valid_) {
    // Learnable operators move every optimizer step (and magnitude
    // pruning is what creates their zeros), so they re-probe and
    // re-compress per call; fixed structural operators probe once.
    op_density_ = SparseRouter::MeasureDensity(op_);
    bool routed = router.ShouldRoute(op_density_);
    LogRouteOnce(&route_logged_, "VertexMix", op_density_, routed);
    if (!routed) return false;
    op_csr_.AssignFromDense(op_);
    csr_valid_ = !learnable_;
    return true;
  }
  bool routed = router.ShouldRoute(op_density_);
  LogRouteOnce(&route_logged_, "VertexMix", op_density_, routed);
  return routed;
}

void VertexMix::MixPlan(const Tensor& input, Tensor* out) const {
  DHGCN_CHECK_EQ(input.ndim(), 4);
  DHGCN_CHECK_EQ(input.dim(3), op_.dim(0));
  DHGCN_CHECK(ShapesEqual(out->shape(), input.shape()));
  if (RouteSparse()) {
    // Same ascending-u double dots as below, zeros skipped (exact
    // no-ops) — bit-identical, ThreadPool-parallel over leading rows.
    SparseMixInto(op_csr_, input, out);
    return;
  }
  int64_t n = input.dim(0), c = input.dim(1), t = input.dim(2),
          v = input.dim(3);
  const float* px = input.data();
  const float* pm = op_.data();
  float* po = out->data();
  int64_t rows = n * c * t;
  // Y_row[v'] = sum_u M[v',u] X_row[u]  ==  X_row * M^T.
  for (int64_t r = 0; r < rows; ++r) {
    const float* xrow = px + r * v;
    float* orow = po + r * v;
    for (int64_t vi = 0; vi < v; ++vi) {
      const float* mrow = pm + vi * v;
      double acc = 0.0;
      for (int64_t u = 0; u < v; ++u) {
        acc += static_cast<double>(mrow[u]) * xrow[u];
      }
      orow[vi] = static_cast<float>(acc);
    }
  }
}

int64_t VertexMix::Record(PlanBuilder& builder, int64_t in) {
  const Shape& s = builder.slot_shape(in);
  if (s.size() != 4 || s[3] != op_.dim(0)) return -1;
  PlanOp op;
  // Capture-time routing: a fixed operator's density cannot change
  // after recording, so the decision is baked into the op kind and the
  // runner replays the CSR kernel directly (no per-step re-probe).
  // Learnable operators keep kVertexMix, whose MixPlan re-routes per
  // call. The CSR image lives in the layer, which must outlive the
  // plan (same contract as every other layer pointer in PlanOp).
  if (!learnable_ && RouteSparse()) {
    op.kind = PlanOpKind::kSpMM;
    op.csr = &op_csr_;
  } else {
    op.kind = PlanOpKind::kVertexMix;
  }
  op.in0 = in;
  op.out = builder.AddSlot(s);
  op.mix = this;
  int64_t out = op.out;
  builder.AddOp(std::move(op));
  return out;
}

Tensor VertexMix::BackwardImpl(const Tensor& grad_output, Workspace* ws) {
  const Tensor& input = cached_input_;
  DHGCN_CHECK(ShapesEqual(grad_output.shape(), input.shape()));
  int64_t v = input.dim(3);
  int64_t rows = input.numel() / v;
  Tensor grad_input = NewZeroedTensor(ws, input.shape());
  if (!learnable_ && RouteSparse()) {
    // Same float scatter order as the dense loop below (vi ascending,
    // zero grads skipped, zero operator entries exact no-op adds) —
    // bit-identical, parallel over leading rows. The learnable case
    // keeps the dense loop: its op-gradient accumulation is shared
    // across leading rows and must stay single-pass serial.
    SparseMixBackwardInto(op_csr_, grad_output, &grad_input);
    return grad_input;
  }
  const float* pg = grad_output.data();
  const float* pm = op_.data();
  const float* px = input.data();
  float* pgi = grad_input.data();
  float* pgm = op_grad_.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* grow = pg + r * v;
    const float* xrow = px + r * v;
    float* girow = pgi + r * v;
    for (int64_t vi = 0; vi < v; ++vi) {
      float g = grow[vi];
      if (g == 0.0f) continue;
      const float* mrow = pm + vi * v;
      float* gmrow = pgm + vi * v;
      for (int64_t u = 0; u < v; ++u) {
        girow[u] += g * mrow[u];
        if (learnable_) gmrow[u] += g * xrow[u];
      }
    }
  }
  return grad_input;
}

Tensor VertexMix::Forward(const Tensor& input) {
  return ForwardImpl(input, nullptr);
}

Tensor VertexMix::Backward(const Tensor& grad_output) {
  return BackwardImpl(grad_output, nullptr);
}

void VertexMix::ForwardInto(const Tensor& input, Workspace& ws, Tensor* out) {
  DHGCN_CHECK(out != nullptr);
  *out = ForwardImpl(input, &ws);
}

void VertexMix::BackwardInto(const Tensor& grad_output, Workspace& ws,
                             Tensor* grad_input) {
  DHGCN_CHECK(grad_input != nullptr);
  *grad_input = BackwardImpl(grad_output, &ws);
}

std::vector<ParamRef> VertexMix::Params() {
  if (!learnable_) return {};
  return {{"op", &op_, &op_grad_}};
}

std::string VertexMix::name() const {
  return StrCat("VertexMix(V=", op_.dim(0),
                learnable_ ? ", learnable)" : ")");
}

void DynamicVertexMix::SetOperators(Tensor ops) {
  DHGCN_CHECK_EQ(ops.ndim(), 4);
  DHGCN_CHECK_EQ(ops.dim(2), ops.dim(3));
  ops_ = std::move(ops);
}

Tensor DynamicVertexMix::ForwardImpl(const Tensor& input, Workspace* ws) {
  DHGCN_CHECK_GT(ops_.numel(), 0);  // SetOperators must precede Forward
  Tensor out = NewTensor(ws, input.shape());
  MixPlan(input, ops_, &out);
  return out;
}

void DynamicVertexMix::MixPlan(const Tensor& input, const Tensor& ops,
                               Tensor* out) const {
  DHGCN_CHECK_EQ(input.ndim(), 4);
  int64_t n = input.dim(0), c = input.dim(1), t = input.dim(2),
          v = input.dim(3);
  DHGCN_CHECK_EQ(ops.dim(0), n);
  DHGCN_CHECK_EQ(ops.dim(1), t);
  DHGCN_CHECK_EQ(ops.dim(2), v);
  DHGCN_CHECK_EQ(ops.dim(3), v);
  DHGCN_CHECK(ShapesEqual(out->shape(), input.shape()));
  const float* px = input.data();
  const float* pops = ops.data();
  float* po = out->data();
  // The operators are data-dependent, so the density probe runs per
  // call — an O(N·T·V²) scan, a factor C cheaper than the mix itself.
  double density = SparseRouter::MeasureDensity(ops);
  bool routed = SparseRouter::Get().ShouldRoute(density);
  LogRouteOnce(&route_logged_, "DynamicVertexMix", density, routed);
  if (routed) {
    // One CSR compression per frame, reused across the C channels;
    // channels write disjoint output rows, so the per-frame channel
    // loop parallelizes without changing any accumulation order.
    for (int64_t b = 0; b < n; ++b) {
      for (int64_t tt = 0; tt < t; ++tt) {
        frame_csr_.AssignFromDense(pops + (b * t + tt) * v * v, v, v);
        const int64_t* row_ptr = frame_csr_.row_ptr().data();
        const int64_t* col_idx = frame_csr_.col_idx().data();
        const float* values = frame_csr_.values().data();
        ThreadPool::Get().ParallelFor(
            0, c, GrainForFlops(frame_csr_.nnz() + 1),
            [&](int64_t ch_begin, int64_t ch_end) {
              for (int64_t ch = ch_begin; ch < ch_end; ++ch) {
                const float* xrow = px + ((b * c + ch) * t + tt) * v;
                float* orow = po + ((b * c + ch) * t + tt) * v;
                for (int64_t vi = 0; vi < v; ++vi) {
                  double acc = 0.0;
                  for (int64_t k = row_ptr[vi]; k < row_ptr[vi + 1]; ++k) {
                    acc += static_cast<double>(values[k]) * xrow[col_idx[k]];
                  }
                  orow[vi] = static_cast<float>(acc);
                }
              }
            });
      }
    }
    return;
  }
  // Dense path, frame-parallel (a frame owns its C output rows). Each
  // frame's operator is transposed once, widened to double and padded
  // to whole tiles of kMixTile output vertices, so a tile's accumulators
  // stay in registers while u runs ascending: every output element still
  // takes the terms of a scalar dot product in the same order, so the
  // bits do not change (the products are of two floats, exact in
  // double, so FMA contraction could not change them either). Padded
  // lanes only ever hold zeros times inputs and are never stored.
  constexpr int64_t kMixTile = 8;
  const int64_t vp = (v + kMixTile - 1) / kMixTile * kMixTile;
  // Each chunk transposes its frames' operators into its own (V, vp)
  // double scratch: mt[u][vi].
  detail::ParallelForFrames(
      n * t, c * v * v, static_cast<size_t>(v * vp) * sizeof(double),
      [&](void* chunk_scratch, int64_t f0, int64_t f1) {
        double* mt = static_cast<double*>(chunk_scratch);
        for (int64_t f = f0; f < f1; ++f) {
          const int64_t b = f / t, tt = f % t;
          const float* m = pops + f * v * v;
          for (int64_t u = 0; u < v; ++u) {
            double* mtrow = mt + u * vp;
            for (int64_t vi = 0; vi < v; ++vi) mtrow[vi] = m[vi * v + u];
            for (int64_t vi = v; vi < vp; ++vi) mtrow[vi] = 0.0;
          }
          for (int64_t ch = 0; ch < c; ++ch) {
            const float* xrow = px + ((b * c + ch) * t + tt) * v;
            float* orow = po + ((b * c + ch) * t + tt) * v;
            for (int64_t v0 = 0; v0 < v; v0 += kMixTile) {
              double acc[kMixTile] = {};
              for (int64_t u = 0; u < v; ++u) {
                const double xu = xrow[u];
                const double* mtile = mt + u * vp + v0;
                for (int64_t j = 0; j < kMixTile; ++j) acc[j] += mtile[j] * xu;
              }
              const int64_t cols = std::min(kMixTile, v - v0);
              for (int64_t j = 0; j < cols; ++j) {
                orow[v0 + j] = static_cast<float>(acc[j]);
              }
            }
          }
        }
      });
}

Tensor DynamicVertexMix::BackwardImpl(const Tensor& grad_output, Workspace* ws) {
  int64_t n = grad_output.dim(0), c = grad_output.dim(1),
          t = grad_output.dim(2), v = grad_output.dim(3);
  Tensor grad_input = NewZeroedTensor(ws, grad_output.shape());
  const float* pg = grad_output.data();
  const float* pops = ops_.data();
  float* pgi = grad_input.data();
  double density = SparseRouter::MeasureDensity(ops_);
  if (SparseRouter::Get().ShouldRoute(density)) {
    // Same float scatter order as the dense loop below; channels own
    // disjoint grad rows, so the channel loop parallelizes.
    for (int64_t b = 0; b < n; ++b) {
      for (int64_t tt = 0; tt < t; ++tt) {
        frame_csr_.AssignFromDense(pops + (b * t + tt) * v * v, v, v);
        const int64_t* row_ptr = frame_csr_.row_ptr().data();
        const int64_t* col_idx = frame_csr_.col_idx().data();
        const float* values = frame_csr_.values().data();
        ThreadPool::Get().ParallelFor(
            0, c, GrainForFlops(frame_csr_.nnz() + 1),
            [&](int64_t ch_begin, int64_t ch_end) {
              for (int64_t ch = ch_begin; ch < ch_end; ++ch) {
                const float* grow = pg + ((b * c + ch) * t + tt) * v;
                float* girow = pgi + ((b * c + ch) * t + tt) * v;
                for (int64_t vi = 0; vi < v; ++vi) {
                  const float g = grow[vi];
                  if (g == 0.0f) continue;
                  for (int64_t k = row_ptr[vi]; k < row_ptr[vi + 1]; ++k) {
                    girow[col_idx[k]] += g * values[k];
                  }
                }
              }
            });
      }
    }
    return grad_input;
  }
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t tt = 0; tt < t; ++tt) {
      const float* m = pops + (b * t + tt) * v * v;
      for (int64_t ch = 0; ch < c; ++ch) {
        const float* grow = pg + ((b * c + ch) * t + tt) * v;
        float* girow = pgi + ((b * c + ch) * t + tt) * v;
        // dX[u] = sum_v M[v,u] dY[v].
        for (int64_t vi = 0; vi < v; ++vi) {
          float g = grow[vi];
          if (g == 0.0f) continue;
          const float* mrow = m + vi * v;
          for (int64_t u = 0; u < v; ++u) girow[u] += g * mrow[u];
        }
      }
    }
  }
  return grad_input;
}

Tensor DynamicVertexMix::Forward(const Tensor& input) {
  return ForwardImpl(input, nullptr);
}

Tensor DynamicVertexMix::Backward(const Tensor& grad_output) {
  return BackwardImpl(grad_output, nullptr);
}

void DynamicVertexMix::ForwardInto(const Tensor& input, Workspace& ws,
                                   Tensor* out) {
  DHGCN_CHECK(out != nullptr);
  *out = ForwardImpl(input, &ws);
}

void DynamicVertexMix::BackwardInto(const Tensor& grad_output, Workspace& ws,
                                    Tensor* grad_input) {
  DHGCN_CHECK(grad_input != nullptr);
  *grad_input = BackwardImpl(grad_output, &ws);
}

LearnableHyperedgeMix::LearnableHyperedgeMix(const Hypergraph& hypergraph) {
  int64_t nv = hypergraph.num_vertices();
  int64_t ne = hypergraph.num_edges();
  Tensor h = hypergraph.IncidenceMatrix();
  std::vector<float> dv = hypergraph.VertexDegrees();
  std::vector<int64_t> de = hypergraph.EdgeDegrees();
  left_ = Tensor({nv, ne});
  right_ = Tensor({ne, nv});
  for (int64_t v = 0; v < nv; ++v) {
    float inv_sqrt_dv = dv[static_cast<size_t>(v)] > 0.0f
                            ? 1.0f / std::sqrt(dv[static_cast<size_t>(v)])
                            : 0.0f;
    for (int64_t e = 0; e < ne; ++e) {
      float he = h.at(v, e);
      if (he == 0.0f) continue;
      left_.at(v, e) =
          inv_sqrt_dv * he /
          static_cast<float>(de[static_cast<size_t>(e)]);
      right_.at(e, v) = he * inv_sqrt_dv;
    }
  }
  weights_ = Tensor::Ones({ne});
  weights_grad_ = Tensor({ne});
  // The incidence factors never change after construction: compress
  // them once and cache the routing probe.
  left_csr_.AssignFromDense(left_);
  right_csr_.AssignFromDense(right_);
  incidence_density_ = right_csr_.Density();
}

Tensor LearnableHyperedgeMix::ForwardImpl(const Tensor& input,
                                          Workspace* ws) {
  DHGCN_CHECK_EQ(input.ndim(), 4);
  int64_t v = input.dim(3);
  DHGCN_CHECK_EQ(v, left_.dim(0));
  int64_t ne = left_.dim(1);
  int64_t rows = input.numel() / v;
  cached_input_shape_ = input.shape();

  // Z = R X^T-per-row: edge features per leading row. The routed
  // branch runs the same ascending-column double dots with the
  // incidence zeros skipped (exact no-ops) — bit-identical to the
  // dense transposed-B kernel.
  bool routed = SparseRouter::Get().ShouldRoute(incidence_density_);
  LogRouteOnce(&route_logged_, "LearnableHyperedgeMix", incidence_density_,
               routed);
  Tensor x2d = input.Reshape({rows, v});
  cached_edge_features_ = NewTensor(ws, {rows, ne});  // (rows, E)
  if (routed) {
    SpMMTransposedBInto(x2d, right_csr_, &cached_edge_features_);
  } else {
    // lint: allow-sparse-route (router dense fallback)
    MatMulTransposedBInto(x2d, right_, &cached_edge_features_);
  }
  // Y = (w .* Z) L^T.
  Tensor scaled = NewTensor(ws, {rows, ne});
  scaled.CopyFrom(cached_edge_features_);
  float* ps = scaled.data();
  const float* pw = weights_.data();
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t e = 0; e < ne; ++e) ps[r * ne + e] *= pw[e];
  }
  Tensor y = NewTensor(ws, {rows, v});
  if (routed) {
    SpMMTransposedBInto(scaled, left_csr_, &y);
  } else {
    // lint: allow-sparse-route (router dense fallback)
    MatMulTransposedBInto(scaled, left_, &y);
  }
  return y.Reshape(cached_input_shape_);
}

Tensor LearnableHyperedgeMix::BackwardImpl(const Tensor& grad_output,
                                           Workspace* ws) {
  DHGCN_CHECK(ShapesEqual(grad_output.shape(), cached_input_shape_));
  int64_t v = left_.dim(0);
  int64_t ne = left_.dim(1);
  int64_t rows = grad_output.numel() / v;
  Tensor g2d = grad_output.Reshape({rows, v});
  // dP = dY L, where P = w .* Z. L is the scaled incidence matrix —
  // mostly zeros — so route through true CSR when the density policy
  // says so; the CSR scatter runs the exact operation sequence of the
  // GemmHint::kSparse reference kernel (ascending k, zero rows
  // skipped), so both branches are bit-identical.
  bool routed = SparseRouter::Get().ShouldRoute(incidence_density_);
  Tensor dp = NewTensor(ws, {rows, ne});  // (rows, E)
  if (routed) {
    DenseSpMMInto(g2d, left_csr_, &dp);
  } else {
    // lint: allow-sparse-route (router dense fallback)
    MatMulInto(g2d, left_, &dp, /*accumulate=*/false, GemmHint::kSparse);
  }
  // dw[e] += sum_r dP[r,e] Z[r,e];  dZ = w .* dP.
  const float* pz = cached_edge_features_.data();
  const float* pw = weights_.data();
  float* pgw = weights_grad_.data();
  float* pdp = dp.data();
  for (int64_t e = 0; e < ne; ++e) {
    double acc = 0.0;
    for (int64_t r = 0; r < rows; ++r) {
      acc += static_cast<double>(pdp[r * ne + e]) * pz[r * ne + e];
    }
    pgw[e] += static_cast<float>(acc);
  }
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t e = 0; e < ne; ++e) pdp[r * ne + e] *= pw[e];
  }
  // dX = dZ R, with R the other incidence-sparse operator.
  Tensor dx = NewTensor(ws, {rows, v});  // (rows, V)
  if (routed) {
    DenseSpMMInto(dp, right_csr_, &dx);
  } else {
    // lint: allow-sparse-route (router dense fallback)
    MatMulInto(dp, right_, &dx, /*accumulate=*/false, GemmHint::kSparse);
  }
  return dx.Reshape(cached_input_shape_);
}

Tensor LearnableHyperedgeMix::Forward(const Tensor& input) {
  return ForwardImpl(input, nullptr);
}

Tensor LearnableHyperedgeMix::Backward(const Tensor& grad_output) {
  return BackwardImpl(grad_output, nullptr);
}

void LearnableHyperedgeMix::ForwardInto(const Tensor& input, Workspace& ws,
                                        Tensor* out) {
  DHGCN_CHECK(out != nullptr);
  *out = ForwardImpl(input, &ws);
}

void LearnableHyperedgeMix::BackwardInto(const Tensor& grad_output,
                                         Workspace& ws, Tensor* grad_input) {
  DHGCN_CHECK(grad_input != nullptr);
  *grad_input = BackwardImpl(grad_output, &ws);
}

std::vector<ParamRef> LearnableHyperedgeMix::Params() {
  return {{"edge_weights", &weights_, &weights_grad_}};
}

std::string LearnableHyperedgeMix::name() const {
  return StrCat("LearnableHyperedgeMix(V=", left_.dim(0),
                ", E=", left_.dim(1), ")");
}

}  // namespace dhgcn
