// End-to-end fault-tolerance tests: a training run that survives injected
// numeric faults, a kill-and-resume cycle driven through the checkpoint
// subsystem, and rejection of corrupted checkpoints. All faults are injected
// deterministically via train::FaultPlan (ISSUE 1 acceptance criteria).

#include <dirent.h>

#include <cmath>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/cpgan.h"
#include "data/synthetic.h"
#include "train/checkpoint.h"
#include "train/fault.h"
#include "util/fileio.h"
#include "util/logging.h"
#include "util/rng.h"

namespace cpgan::core {
namespace {

graph::Graph SmallCommunityGraph(uint64_t seed = 3) {
  data::CommunityGraphParams params;
  params.num_nodes = 100;
  params.num_edges = 320;
  params.num_communities = 5;
  params.intra_fraction = 0.9;
  params.degree_exponent = 2.6;
  util::Rng rng(seed);
  return data::MakeCommunityGraph(params, rng);
}

CpganConfig FastConfig() {
  CpganConfig config;
  config.epochs = 24;
  config.subgraph_size = 64;
  config.hidden_dim = 12;
  config.latent_dim = 6;
  config.feature_dim = 5;
  config.seed = 11;
  return config;
}

// Returns a fresh directory: TempDir is shared across test-binary runs, so
// any files left by a previous invocation are removed first.
std::string TempDirFor(const char* name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  util::MakeDirs(dir);
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* entry = ::readdir(d)) {
      std::remove((dir + "/" + entry->d_name).c_str());
    }
    ::closedir(d);
  }
  return dir;
}

TEST(FaultToleranceTest, NanGradientInjectionRecoversAndFinishes) {
  graph::Graph observed = SmallCommunityGraph();
  CpganConfig config = FastConfig();
  Cpgan model(config);
  train::FaultPlan plan;
  plan.nan_grad_epoch = 7;
  plan.nan_grad_param = 2;
  model.SetFaultPlan(plan);
  TrainStats stats = model.Fit(observed);

  // The run completes every epoch, reports the recovery, and the final
  // weights are finite — the poisoned step never reached the optimizer.
  EXPECT_EQ(static_cast<int>(stats.g_loss.size()), config.epochs);
  EXPECT_GE(stats.recoveries, 1);
  EXPECT_FALSE(stats.guard_exhausted);
  EXPECT_TRUE(model.trained());
  for (float loss : stats.d_loss) EXPECT_TRUE(std::isfinite(loss));
  graph::Graph generated = model.Generate();
  EXPECT_EQ(generated.num_nodes(), observed.num_nodes());
}

TEST(FaultToleranceTest, InfLossInjectionIsSkippedNotApplied) {
  graph::Graph observed = SmallCommunityGraph();
  Cpgan model(FastConfig());
  train::FaultPlan plan;
  plan.inf_loss_epoch = 5;
  model.SetFaultPlan(plan);
  TrainStats stats = model.Fit(observed);
  EXPECT_GE(stats.recoveries, 1);
  EXPECT_TRUE(model.trained());
  // The injected Inf is recorded in the loss trace but training moved on.
  EXPECT_TRUE(std::isinf(stats.g_loss[5]));
  EXPECT_TRUE(std::isfinite(stats.g_loss.back()));
}

TEST(FaultToleranceTest, CleanRunReportsNoRecoveries) {
  graph::Graph observed = SmallCommunityGraph();
  Cpgan model(FastConfig());
  TrainStats stats = model.Fit(observed);
  EXPECT_EQ(stats.recoveries, 0);
  EXPECT_EQ(stats.start_epoch, 0);
  EXPECT_FALSE(stats.guard_exhausted);
}

TEST(FaultToleranceTest, KilledRunResumesFromLastCheckpoint) {
  graph::Graph observed = SmallCommunityGraph();
  std::string dir = TempDirFor("resume_run");
  CpganConfig config = FastConfig();
  config.checkpoint_dir = dir;
  config.checkpoint_every = 8;

  // Reference: an uninterrupted run.
  Cpgan uninterrupted(config);
  TrainStats full = uninterrupted.Fit(observed);
  ASSERT_EQ(static_cast<int>(full.g_loss.size()), config.epochs);

  // Run 1: killed after epoch 13. The only checkpoint boundary reached
  // before the kill is epoch 8.
  std::string dir2 = TempDirFor("resume_run_killed");
  config.checkpoint_dir = dir2;
  Cpgan killed(config);
  train::FaultPlan plan;
  plan.stop_after_epoch = 13;
  killed.SetFaultPlan(plan);
  TrainStats partial = killed.Fit(observed);
  EXPECT_TRUE(partial.stopped_by_fault);
  EXPECT_FALSE(killed.trained());
  EXPECT_GE(partial.checkpoints_written, 1);

  std::string latest = train::LatestCheckpoint(dir2);
  ASSERT_FALSE(latest.empty());
  EXPECT_EQ(latest, train::CheckpointPath(dir2, 8));

  // Run 2: a fresh process resumes from the last epoch boundary and finishes
  // with the same total epoch count as the uninterrupted run.
  Cpgan resumed(config);
  ASSERT_TRUE(resumed.ResumeFrom(latest));
  TrainStats rest = resumed.Fit(observed);
  EXPECT_EQ(rest.start_epoch, 8);
  EXPECT_EQ(rest.start_epoch + static_cast<int>(rest.g_loss.size()),
            config.epochs);
  EXPECT_TRUE(resumed.trained());
  graph::Graph generated = resumed.Generate();
  EXPECT_EQ(generated.num_nodes(), observed.num_nodes());
}

TEST(FaultToleranceTest, BitFlippedCheckpointIsRejected) {
  graph::Graph observed = SmallCommunityGraph();
  std::string dir = TempDirFor("resume_corrupt");
  CpganConfig config = FastConfig();
  config.checkpoint_dir = dir;
  config.checkpoint_every = 8;
  Cpgan model(config);
  model.Fit(observed);

  std::string latest = train::LatestCheckpoint(dir);
  ASSERT_FALSE(latest.empty());
  ASSERT_TRUE(train::FlipByte(latest, train::FileSize(latest) / 2));

  Cpgan fresh(config);
  EXPECT_FALSE(fresh.ResumeFrom(latest));
  // The rejected resume is cleared: Fit trains from scratch.
  TrainStats stats = fresh.Fit(observed);
  EXPECT_EQ(stats.start_epoch, 0);
  EXPECT_TRUE(fresh.trained());
}

TEST(FaultToleranceTest, TruncatedCheckpointIsRejected) {
  graph::Graph observed = SmallCommunityGraph();
  std::string dir = TempDirFor("resume_truncated");
  CpganConfig config = FastConfig();
  config.checkpoint_dir = dir;
  config.checkpoint_every = 100;  // only the final-epoch checkpoint
  Cpgan model(config);
  model.Fit(observed);
  std::string latest = train::LatestCheckpoint(dir);
  ASSERT_FALSE(latest.empty());
  ASSERT_TRUE(
      train::TruncateFile(latest, train::FileSize(latest) * 2 / 3));
  Cpgan fresh(config);
  EXPECT_FALSE(fresh.ResumeFrom(latest));
}

TEST(FaultToleranceTest, SaveWeightsOnUntrainedModelFailsGracefully) {
  Cpgan model(FastConfig());
  const std::string path = ::testing::TempDir() + "/untrained.cpck";
  std::remove(path.c_str());
  EXPECT_FALSE(model.SaveWeights(path));
  EXPECT_FALSE(model.WarmStart(SmallCommunityGraph(), path));
  EXPECT_FALSE(model.trained());
}

}  // namespace
}  // namespace cpgan::core
