// Allocation-budget guarantees of the workspace-planned execution path.
//
// The acceptance bar for the workspace refactor: a steady-state training
// step (forward + loss + backward + optimizer update) on the full DHGCN
// model — all three branches enabled — performs at most 10 owning tensor
// allocations after a two-step warmup. Warmup steps may allocate: the
// arena grows to the step's high-water mark and the optimizer lazily
// creates its momentum buffers; afterwards every activation lives in the
// arena and the heap goes quiet.

#include <cmath>
#include <vector>

#include "gtest/gtest.h"

#include "base/alloc_stats.h"
#include "base/rng.h"
#include "core/dhgcn_model.h"
#include "data/dataloader.h"
#include "data/dataset.h"
#include "data/synthetic_generator.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tensor/sparse.h"
#include "tensor/sparse_router.h"
#include "tensor/workspace.h"
#include "train/trainer.h"

namespace dhgcn {
namespace {

constexpr uint64_t kStepBudget = 10;

TEST(AllocBudgetTest, SteadyStateTrainingStepWithinBudget) {
  DhgcnConfig config =
      DhgcnConfig::Tiny(SkeletonLayoutType::kKinetics18, /*num_classes=*/4);
  ASSERT_TRUE(config.enable_static);
  ASSERT_TRUE(config.enable_joint_weight);
  ASSERT_TRUE(config.enable_topology);
  DhgcnModel model(config);
  SoftmaxCrossEntropy loss;
  SgdOptimizer::Options sgd_options;
  sgd_options.lr = 0.01f;
  SgdOptimizer optimizer(model.Params(), sgd_options);

  Rng rng(7);
  Tensor x = Tensor::RandomNormal({2, 3, 8, 18}, rng);
  std::vector<int64_t> labels = {1, 3};

  Workspace ws;
  for (int step = 0; step < 5; ++step) {
    AllocStatsGuard guard;
    ws.Reset();
    optimizer.ZeroGrad();
    Tensor logits;
    model.ForwardInto(x, ws, &logits);
    float loss_value = loss.TryForward(logits, labels, ws).ValueOrDie();
    ASSERT_TRUE(std::isfinite(loss_value));
    Tensor grad_input;
    model.BackwardInto(loss.Backward(ws), ws, &grad_input);
    optimizer.Step();
    if (step >= 2) {
      EXPECT_LE(guard.allocations(), kStepBudget)
          << "step " << step << " allocated " << guard.allocations()
          << " owning tensors (" << guard.bytes() << " bytes)";
    }
  }
}

TEST(AllocBudgetTest, SteadyStateInferenceStepWithinBudget) {
  DhgcnConfig config =
      DhgcnConfig::Tiny(SkeletonLayoutType::kKinetics18, /*num_classes=*/4);
  DhgcnModel model(config);
  model.SetTraining(false);
  Rng rng(8);
  Tensor x = Tensor::RandomNormal({2, 3, 8, 18}, rng);

  Workspace ws;
  for (int step = 0; step < 5; ++step) {
    AllocStatsGuard guard;
    ws.Reset();
    Tensor logits;
    model.ForwardInto(x, ws, &logits);
    ASSERT_EQ(logits.dim(0), 2);
    if (step >= 2) {
      EXPECT_LE(guard.allocations(), kStepBudget)
          << "inference step " << step << " allocated "
          << guard.allocations() << " owning tensors";
    }
  }
}

TEST(AllocBudgetTest, TrainerWorkspacePathAllocatesFarLessThanLegacy) {
  SyntheticDataConfig data_config = NtuLikeConfig(3, 6, 8, 42);
  SkeletonDataset dataset = SkeletonDataset::Generate(data_config).MoveValue();
  DatasetSplit split = dataset.RandomSplit(0.3f, 1);

  auto run_epochs = [&](bool use_workspace) -> std::vector<EpochStats> {
    DataLoader loader(&dataset, split.train, 6, InputStream::kJoint,
                      /*shuffle=*/false, Rng(3));
    DhgcnConfig config =
        DhgcnConfig::Tiny(SkeletonLayoutType::kNtu25, /*num_classes=*/3);
    DhgcnModel model(config);
    TrainOptions options;
    options.epochs = 2;
    options.initial_lr = 0.01f;
    options.use_workspace = use_workspace;
    Trainer trainer(&model, options);
    return trainer.Train(loader).ValueOrDie();
  };

  std::vector<EpochStats> planned = run_epochs(true);
  std::vector<EpochStats> legacy = run_epochs(false);
  ASSERT_EQ(planned.size(), 2u);
  ASSERT_EQ(legacy.size(), 2u);

  // Batch assembly (the loader materializes each batch tensor) costs the
  // same on both paths: measure one epoch of it alone.
  DataLoader loader(&dataset, split.train, 6, InputStream::kJoint,
                    /*shuffle=*/false, Rng(3));
  loader.StartEpoch();
  AllocStatsGuard batch_guard;
  for (int64_t b = 0; b < loader.NumBatches(); ++b) {
    Batch batch = loader.GetBatch(b);
  }
  const uint64_t batch_allocs = batch_guard.allocations();

  // EpochStats surfaces the per-epoch allocation totals.
  EXPECT_GT(legacy[1].tensor_allocations, 0u);
  EXPECT_GT(planned[1].tensor_alloc_bytes, 0u);  // batch assembly remains

  // Epoch 2 on the workspace path is steady state: only batch assembly
  // still allocates (its model side allocates nothing), while the legacy
  // path still allocates model-side tensors on top of it.
  EXPECT_EQ(planned[1].tensor_allocations, batch_allocs);
  EXPECT_GT(legacy[1].tensor_allocations, batch_allocs);
}

// The legacy SpMM/SpMMAccumulate entry points allocate an owning result
// per call; the *Into family is the fix — once the CSR capacity is warm,
// repeated sparse steps must not touch the heap at all.
TEST(AllocBudgetTest, SpMMIntoFamilyIsAllocationFreeWhenWarm) {
  Rng rng(9);
  Tensor dense_op = Tensor::RandomNormal({25, 25}, rng);
  for (int64_t i = 0; i < dense_op.numel(); ++i) {
    if (rng.Uniform() >= 0.2f) dense_op.flat(i) = 0.0f;
  }
  Tensor b = Tensor::RandomNormal({25, 16}, rng);   // right operand
  Tensor a = Tensor::RandomNormal({16, 25}, rng);   // left operand
  Tensor x = Tensor::RandomNormal({2, 3, 4, 25}, rng);

  CsrMatrix csr(1, 1);
  csr.AssignFromDense(dense_op);  // warm the index/value capacity
  Tensor c({25, 16});
  Tensor c2({16, 25});
  Tensor y(x.shape());
  Tensor gi(x.shape());

  AllocStatsGuard guard;
  for (int step = 0; step < 4; ++step) {
    csr.AssignFromDense(dense_op);  // steady-state re-compression
    SpMMInto(csr, b, &c);
    SpMMAccumulateInto(csr, b, &c);
    DenseSpMMInto(a, csr, &c2);
    SpMMTransposedBInto(a, csr, &c2);
    SparseMixInto(csr, x, &y);
    gi.Fill(0.0f);
    SparseMixBackwardInto(csr, x, &gi);
  }
  EXPECT_EQ(guard.allocations(), 0u)
      << "sparse kernels allocated " << guard.allocations()
      << " owning tensors in steady state";
}

// The steady-state budget must hold with the router forced on: every
// routable operator runs its CSR path, and the per-step re-compressions
// reuse warm capacity instead of allocating.
TEST(AllocBudgetTest, SteadyStateTrainingStepWithinBudgetSparseRouted) {
  SparseMode saved = SparseRouter::Get().mode();
  SparseRouter::Get().set_mode(SparseMode::kOn);

  DhgcnConfig config =
      DhgcnConfig::Tiny(SkeletonLayoutType::kKinetics18, /*num_classes=*/4);
  DhgcnModel model(config);
  SoftmaxCrossEntropy loss;
  SgdOptimizer::Options sgd_options;
  sgd_options.lr = 0.01f;
  SgdOptimizer optimizer(model.Params(), sgd_options);

  Rng rng(11);
  Tensor x = Tensor::RandomNormal({2, 3, 8, 18}, rng);
  std::vector<int64_t> labels = {1, 3};

  Workspace ws;
  for (int step = 0; step < 5; ++step) {
    AllocStatsGuard guard;
    ws.Reset();
    optimizer.ZeroGrad();
    Tensor logits;
    model.ForwardInto(x, ws, &logits);
    float loss_value = loss.TryForward(logits, labels, ws).ValueOrDie();
    ASSERT_TRUE(std::isfinite(loss_value));
    Tensor grad_input;
    model.BackwardInto(loss.Backward(ws), ws, &grad_input);
    optimizer.Step();
    if (step >= 2) {
      EXPECT_LE(guard.allocations(), kStepBudget)
          << "sparse-routed step " << step << " allocated "
          << guard.allocations() << " owning tensors ("
          << guard.bytes() << " bytes)";
    }
  }
  SparseRouter::Get().set_mode(saved);
}

TEST(AllocBudgetTest, WorkspaceAndLegacyTrainingAreBitIdentical) {
  SyntheticDataConfig data_config = NtuLikeConfig(2, 5, 8, 17);
  SkeletonDataset dataset = SkeletonDataset::Generate(data_config).MoveValue();
  DatasetSplit split = dataset.RandomSplit(0.3f, 1);

  auto final_loss = [&](bool use_workspace) -> double {
    DataLoader loader(&dataset, split.train, 4, InputStream::kJoint,
                      /*shuffle=*/true, Rng(5));
    DhgcnConfig config =
        DhgcnConfig::Tiny(SkeletonLayoutType::kNtu25, /*num_classes=*/2);
    DhgcnModel model(config);
    TrainOptions options;
    options.epochs = 2;
    options.initial_lr = 0.01f;
    options.use_workspace = use_workspace;
    Trainer trainer(&model, options);
    return trainer.Train(loader).ValueOrDie().back().mean_loss;
  };

  EXPECT_EQ(final_loss(true), final_loss(false));
}

}  // namespace
}  // namespace dhgcn
