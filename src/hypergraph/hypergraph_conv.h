#ifndef DHGCN_HYPERGRAPH_HYPERGRAPH_CONV_H_
#define DHGCN_HYPERGRAPH_HYPERGRAPH_CONV_H_

#include <string>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "nn/layer.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace dhgcn {

/// \brief Normalized hypergraph convolution operator (Eq. 5):
///   Omega = Dv^{-1/2} H W De^{-1} H^T Dv^{-1/2}   (V, V)
///
/// Note: the paper prints Dv^{1/2}; the standard HGNN operator (Feng et
/// al. 2019, the paper's reference [6]) uses Dv^{-1/2}, which is what we
/// implement — the positive exponent would amplify high-degree vertices
/// and is a typo. Isolated vertices (degree 0) map to zero rows/columns.
/// With a workspace, the operator and its factors are arena-backed.
Tensor NormalizedHypergraphOperator(const Hypergraph& hypergraph,
                                    Workspace* ws = nullptr);

/// \brief Applies a (V, V) vertex-mixing operator to (N, C, T, V) inputs:
///   Y[n,c,t,v] = sum_u M[v,u] X[n,c,t,u].
///
/// This is the aggregation half of both graph and hypergraph convolution;
/// composing it with a 1x1 Conv2d gives the full X^(l+1) = sigma(M X Theta)
/// update. The operator may be a fixed structure matrix or learnable (the
/// B matrix of 2s-AGCN).
class VertexMix : public Layer {
 public:
  /// `learnable` makes the operator a trainable parameter.
  VertexMix(Tensor op, bool learnable = false);

  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  void ForwardInto(const Tensor& input, Workspace& ws, Tensor* out) override;
  void BackwardInto(const Tensor& grad_output, Workspace& ws,
                    Tensor* grad_input) override;
  std::vector<ParamRef> Params() override;
  std::string name() const override;
  int64_t Record(PlanBuilder& builder, int64_t in) override;

  /// Plan-replay entry: applies the (V, V) operator into the pre-shaped
  /// `out` — the exact loop of the layer forward (bit-identical), minus
  /// the autograd input cache.
  void MixPlan(const Tensor& input, Tensor* out) const;

  const Tensor& op() const { return op_; }
  Tensor& mutable_op() { return op_; }

 private:
  Tensor ForwardImpl(const Tensor& input, Workspace* ws);
  Tensor BackwardImpl(const Tensor& grad_output, Workspace* ws);
  /// Density-policy decision for this operator; builds/refreshes the
  /// CSR image when routing sparse. Cached for fixed operators,
  /// re-probed per call for learnable ones (the weights move every
  /// optimizer step — and pruning is what *creates* their sparsity).
  bool RouteSparse() const;

  Tensor op_;       // (V, V)
  Tensor op_grad_;  // (V, V)
  bool learnable_;
  Tensor cached_input_;

  // Routing cache (mutable: MixPlan is const on the plan-replay path).
  mutable CsrMatrix op_csr_{1, 1};
  mutable double op_density_ = 1.0;
  mutable bool csr_valid_ = false;
  mutable bool route_logged_ = false;
};

/// \brief Applies per-sample, per-frame (V, V) operators to (N, C, T, V):
///   Y[n,c,t,v] = sum_u Ops[n,t,v,u] X[n,c,t,u].
///
/// The operators are data-dependent structure (dynamic joint weight /
/// dynamic topology) and are treated as constants in backward, exactly as
/// the non-differentiable K-NN / K-means selection requires.
class DynamicVertexMix : public Layer {
 public:
  DynamicVertexMix() = default;

  /// Must be called before Forward with operators of shape (N, T, V, V)
  /// matching the upcoming input's N, T, V.
  void SetOperators(Tensor ops);

  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  void ForwardInto(const Tensor& input, Workspace& ws, Tensor* out) override;
  void BackwardInto(const Tensor& grad_output, Workspace& ws,
                    Tensor* grad_input) override;
  std::string name() const override { return "DynamicVertexMix"; }

  /// Plan-replay entry: applies explicit per-frame operators `ops`
  /// (N, T, V, V) to `input` (N, C, T, V) into the pre-shaped `out`.
  /// The layer forward delegates here with its stashed `ops_`, so both
  /// paths share one loop (bit-identical). Plans pass the operator slot
  /// directly instead of going through `SetOperators`.
  void MixPlan(const Tensor& input, const Tensor& ops, Tensor* out) const;

 private:
  Tensor ForwardImpl(const Tensor& input, Workspace* ws);
  Tensor BackwardImpl(const Tensor& grad_output, Workspace* ws);

  Tensor ops_;  // (N, T, V, V)

  /// Per-frame CSR scratch for the routed path; capacity is reused
  /// across frames and steps (mutable: MixPlan is const).
  mutable CsrMatrix frame_csr_{1, 1};
  mutable bool route_logged_ = false;
};

/// \brief Hypergraph aggregation with *learnable hyperedge weights* — the
/// W of Eq. 5 treated as a trainable parameter instead of fixed at 1
/// (the "semi-dynamic hypergraph" idea of the paper's reference [23]).
///
/// The operator is factored as  Y = L diag(w) R X  with
///   L = Dv^{-1/2} H De^{-1}   (V, E)
///   R = H^T Dv^{-1/2}         (E, V)
/// where the degree normalizations are computed from the initial unit
/// weights (the standard approximation that keeps the factorization
/// linear in w). `w` is initialized to 1, so an untrained layer equals
/// the fixed `NormalizedHypergraphOperator` aggregation exactly.
class LearnableHyperedgeMix : public Layer {
 public:
  explicit LearnableHyperedgeMix(const Hypergraph& hypergraph);

  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  void ForwardInto(const Tensor& input, Workspace& ws, Tensor* out) override;
  void BackwardInto(const Tensor& grad_output, Workspace& ws,
                    Tensor* grad_input) override;
  std::vector<ParamRef> Params() override;
  std::string name() const override;

  const Tensor& edge_weights() const { return weights_; }

 private:
  Tensor ForwardImpl(const Tensor& input, Workspace* ws);
  Tensor BackwardImpl(const Tensor& grad_output, Workspace* ws);

  Tensor left_;      // (V, E)
  Tensor right_;     // (E, V)
  Tensor weights_;   // (E), learnable
  Tensor weights_grad_;
  Tensor cached_edge_features_;  // Z = R X per leading row, (rows, E)
  Shape cached_input_shape_;

  // CSR images of the fixed incidence factors, built once in the
  // constructor; `incidence_density_` is the cached routing probe.
  CsrMatrix left_csr_{1, 1};
  CsrMatrix right_csr_{1, 1};
  double incidence_density_ = 1.0;
  mutable bool route_logged_ = false;
};

}  // namespace dhgcn

#endif  // DHGCN_HYPERGRAPH_HYPERGRAPH_CONV_H_
