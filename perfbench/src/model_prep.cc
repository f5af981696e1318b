#include "model_prep.h"

#include <algorithm>

#include "io/serialization.h"

namespace perfbench {
namespace {

// BatchNorm2d's default momentum, which the model's BatchNorms use.
constexpr float kMomentum = 0.1f;

bool EndsWith(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

}  // namespace

void SaveCalibratedModel(const dhgcn::DhgcnConfig& config,
                         const dhgcn::Tensor& batch, const std::string& path) {
  dhgcn::DhgcnModel model(config);
  model.SetTraining(true);
  (void)model.Forward(batch);  // only the running-statistic update matters
  for (const dhgcn::ParamRef& p : model.Params()) {
    // new = (1 - m) * initial + m * batch_stat, with initial mean 0 and
    // initial variance 1.
    const float initial = EndsWith(p.name, "running_var") ? 1.0f : 0.0f;
    if (!EndsWith(p.name, "running_mean") && initial == 0.0f) continue;
    float* v = p.value->data();
    for (int64_t i = 0; i < p.value->numel(); ++i) {
      v[i] = (v[i] - (1.0f - kMomentum) * initial) / kMomentum;
      if (initial == 1.0f) v[i] = std::max(v[i], 0.0f);  // float rounding
    }
  }
  dhgcn::SaveParameters(path, model).AbortIfNotOk();
}

}  // namespace perfbench
