#ifndef DHGCN_CORE_DYNAMIC_JOINT_WEIGHT_H_
#define DHGCN_CORE_DYNAMIC_JOINT_WEIGHT_H_

#include "hypergraph/hypergraph.h"
#include "tensor/tensor.h"

namespace dhgcn {

class Workspace;

/// \brief Per-joint moving distance (Eq. 6):
///   dis[n,t,v] = || x[n,:,t,v] - x[n,:,t-1,v] ||_2
/// for t >= 1; frame 0 copies frame 1's distance so every frame carries a
/// meaningful weight. Input is (N, C, T, V) with the first
/// min(C, 3) channels treated as coordinates.
Tensor MovingDistances(const Tensor& coords, Workspace* ws = nullptr);

/// \brief The weighted incidence matrix Imp = W_all ⊙ H (Eqs. 7–8) for one
/// frame: entry (v, e) is dis_v / sum_{u in e} dis_u when v in e, else 0.
///
/// Eq. 7 is the paper's "softmax": a share of the hyperedge's total
/// moving distance, which already sums to 1 over each hyperedge — we
/// implement exactly that normalization. Hyperedges whose joints all have
/// (near-)zero motion fall back to uniform weights 1/|e| so the operator
/// never degenerates.
Tensor JointWeightIncidence(const Tensor& frame_distances,
                            const Hypergraph& hypergraph,
                            Workspace* ws = nullptr);

/// \brief The dynamic joint-weight operators Imp Imp^T (Eq. 9) for every
/// sample and frame: coords (N, C, T, V) -> operators (N, T, V, V).
Tensor DynamicJointWeightOperators(const Tensor& coords,
                                   const Hypergraph& hypergraph,
                                   Workspace* ws = nullptr);

/// \brief DynamicJointWeightOperators into a pre-shaped (N, T, V, V)
/// `out`: frame by frame on one reused scratch block, no per-frame
/// allocation. Each operator is assembled from the hyperedges' member
/// pairs; for finite coords it has the bits of MovingDistances and
/// JointWeightIncidence followed by a dense or CSR Imp Imp^T product (a
/// NaN coordinate poisons only the entries of pairs that share an edge
/// with the NaN joint, see DESIGN.md §16).
void DynamicJointWeightOperatorsInto(const Tensor& coords,
                                     const Hypergraph& hypergraph,
                                     Tensor* out);

/// \brief Strides operator tensors (N, T, V, V) along T (keeping frames
/// 0, s, 2s, ...) so they track temporal down-sampling inside the model.
Tensor StrideOperatorsInTime(const Tensor& ops, int64_t stride,
                             Workspace* ws = nullptr);

}  // namespace dhgcn

#endif  // DHGCN_CORE_DYNAMIC_JOINT_WEIGHT_H_
