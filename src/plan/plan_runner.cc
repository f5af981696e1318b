#include "plan/plan_runner.h"

#include <cstddef>
#include <utility>

#include "base/check.h"
#include "core/dynamic_joint_weight.h"
#include "core/dynamic_topology.h"
#include "hypergraph/hypergraph_conv.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/relu.h"
#include "plan/fused_kernels.h"
#include "tensor/sparse.h"
#include "tensor/tensor_ops.h"

namespace dhgcn {

PlanRunner::PlanRunner(ExecutionPlan plan) : plan_(std::move(plan)) {
  DHGCN_CHECK(plan_.resolved);
  DHGCN_CHECK_GE(plan_.input_slot, 0);
  DHGCN_CHECK_GE(plan_.output_slot, 0);
  arena_.ReservePinned(plan_.arena_bytes);
  // Int8 staging buffers (std::vector, not Tensor — outside the
  // allocation budget) are sized once here so Run never grows them.
  int8_stage_.resize(plan_.ops.size());  // lint: allow-plan-alloc (ctor setup)
  for (size_t i = 0; i < plan_.ops.size(); ++i) {
    const PlanOp& op = plan_.ops[i];
    if (op.quant != nullptr) {
      SizeInt8Staging(op, plan_.slots[static_cast<size_t>(op.in0)].shape,
                      &int8_stage_[i]);
    }
  }
  // Every slot tensor is built exactly once, here; Run() only reuses
  // them. Dead slots (fused away) get an empty placeholder that is
  // never touched by any surviving op.
  slots_.reserve(plan_.slots.size());  // lint: allow-plan-alloc (ctor setup)
  for (const PlanSlot& slot : plan_.slots) {
    if (slot.offset_bytes < 0) {
      slots_.push_back(Tensor());  // lint: allow-plan-alloc (ctor setup)
    } else {
      // lint: allow-plan-alloc (ctor setup); lint: allow-ws-lifetime —
      // pinned arena (ReservePinned): offsets stay valid across Reset.
      slots_.push_back(arena_.BorrowAt(
          static_cast<size_t>(slot.offset_bytes), slot.shape));
    }
  }
}

const Shape& PlanRunner::input_shape() const {
  return plan_.slots[static_cast<size_t>(plan_.input_slot)].shape;
}

const Tensor& PlanRunner::Run(const Tensor& input) {
  Tensor& in_slot = slots_[static_cast<size_t>(plan_.input_slot)];
  DHGCN_CHECK(ShapesEqual(input.shape(), in_slot.shape()));
  in_slot.CopyFrom(input);
  if (observer_) observer_(plan_.input_slot, in_slot);
  for (size_t idx = 0; idx < plan_.ops.size(); ++idx) {
    const PlanOp& op = plan_.ops[idx];
    const Tensor& in0 = slots_[static_cast<size_t>(op.in0)];
    Tensor& out = slots_[static_cast<size_t>(op.out)];
    switch (op.kind) {
      case PlanOpKind::kConv2d:
        op.conv->ForwardPlan(in0, nullptr, nullptr, &out);
        break;
      case PlanOpKind::kConv2dFolded:
        op.conv->ForwardPlan(in0, &op.fold_weight, &op.fold_bias, &out);
        break;
      case PlanOpKind::kBatchNormEval:
        op.bn->EvalPlan(in0, &out);
        break;
      case PlanOpKind::kRelu:
        ReLU::EvalPlan(in0, &out);
        break;
      case PlanOpKind::kLinear:
        op.linear->ForwardPlan(in0, nullptr, nullptr, &out);
        break;
      case PlanOpKind::kLinearFolded:
        op.linear->ForwardPlan(in0, &op.fold_weight, &op.fold_bias, &out);
        break;
      case PlanOpKind::kGlobalAvgPool:
        op.pool->EvalPlan(in0, &out);
        break;
      case PlanOpKind::kVertexMix:
        op.mix->MixPlan(in0, &out);
        break;
      case PlanOpKind::kSpMM:
        // Routing decided at capture time; the CSR image lives in the
        // recording layer. Allocation-free by construction.
        SparseMixInto(*op.csr, in0, &out);
        break;
      case PlanOpKind::kDynamicVertexMix:
        op.dyn_mix->MixPlan(in0, slots_[static_cast<size_t>(op.in1)], &out);
        break;
      case PlanOpKind::kJointWeightOps:
        // Data-dependent values, static shape: the layer path's kernel
        // writes straight into the pinned slot. Same function, same
        // input => same bits.
        DynamicJointWeightOperatorsInto(in0, *op.hypergraph, &out);
        break;
      case PlanOpKind::kStrideOps: {
        const Tensor ops = StrideOperatorsInTime(in0, op.stride, &scratch_);
        out.CopyFrom(ops);
        scratch_.Reset();
        break;
      }
      case PlanOpKind::kTopologyOps:
        DynamicTopologyOperatorsInto(in0, *op.topology, &out);
        break;
      case PlanOpKind::kAccumulate:
        AddInPlace(out, in0);
        break;
      case PlanOpKind::kBnAddRelu:
        BnAddReluKernel(op.fold_scale, op.fold_shift, in0,
                        slots_[static_cast<size_t>(op.in1)], &out);
        break;
      case PlanOpKind::kAddRelu:
        AddReluKernel(in0, slots_[static_cast<size_t>(op.in1)], &out);
        break;
      case PlanOpKind::kLinearInt8:
        RunLinearInt8(op, &int8_stage_[idx], in0, &out);
        break;
      case PlanOpKind::kConv2dInt8Folded:
        RunConv2dInt8(op, &int8_stage_[idx], in0, &out);
        break;
    }
    if (observer_) observer_(op.out, out);
  }
  return slots_[static_cast<size_t>(plan_.output_slot)];
}

}  // namespace dhgcn
