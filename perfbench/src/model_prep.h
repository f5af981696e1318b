#ifndef PERFBENCH_MODEL_PREP_H_
#define PERFBENCH_MODEL_PREP_H_

#include <string>

#include "core/dhgcn_model.h"
#include "tensor/tensor.h"

namespace perfbench {

/// Writes a parameter checkpoint of `config`'s model that stands in for
/// trained weights, for the inference workloads to load during set-up.
///
/// A freshly built model's BatchNorms hold their initial running
/// statistics (mean 0, variance 1), so in eval mode activations grow
/// block by block (paper-width logits reach ~1e4). One training-mode
/// forward on `batch` blends each running statistic one momentum step
/// toward that batch's statistics; undoing the blend sets them to the
/// batch statistics themselves, as a trained model's would be. Untimed:
/// it replaces training, which no workload measures here.
void SaveCalibratedModel(const dhgcn::DhgcnConfig& config,
                         const dhgcn::Tensor& batch, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_MODEL_PREP_H_
