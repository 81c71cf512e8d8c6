// Golden fidelity pin (`ctest -L fidelity`): trains CPGAN on ppi_like at a
// fixed seed and checks the paper's Table III community scores (NMI, ARI)
// and Table IV structure scores (degree and clustering MMD) of one flat and
// one hierarchical graph against pinned values. Generation changes that
// claim to keep quality (a faster fill, a cheaper scorer) must keep these
// inside the tolerances below; docs/TESTING.md, "Fidelity pin", gives the
// recipe for re-pinning after a deliberate quality change.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/cpgan.h"
#include "data/datasets.h"
#include "eval/community_eval.h"
#include "eval/graph_metrics.h"
#include "tensor/kernels.h"
#include "util/rng.h"

namespace cpgan {
namespace {

namespace k = cpgan::tensor::kernels;

struct Scores {
  double nmi;
  double ari;
  double deg_mmd;
  double clus_mmd;
};

/// Pinned scores of one kernel backend. Backends round products
/// differently, so training ends at a different model on each and the
/// scores are pinned per backend (default CpganConfig, seed 3; generation
/// stream 17; evaluation stream 5).
struct BackendPins {
  const char* backend;
  Scores flat;
  Scores hier;
};

constexpr BackendPins kPins[] = {
    {"avx2",
     {0.2428, 0.1756, 0.2967, 1.9778},
     {0.1901, 0.0515, 0.0168, 1.9605}},
    {"scalar",
     {0.2477, 0.1876, 0.2220, 1.9804},
     {0.1920, 0.0331, 0.0251, 1.9582}},
};

// Absolute tolerances, set from the spread over generation seeds 17-21 of
// the same model, so that a changed tie order or summation order (which
// re-rolls the output much like another seed) passes while a fill that
// loses structure does not:
//   NMI, ARI  +-0.04   spread up to 0.040 (scalar flat NMI 0.228-0.268).
//   deg MMD   +-0.03 flat (spread 0.014), +-0.01 hier (spread 0.009); flat
//                      sits 9-18x above hier, so a hierarchical fill that
//                      drifts toward flat's degree profile fails.
//   clus MMD  +-0.03   spread up to 0.011.
constexpr double kCommunityTol = 0.04;
constexpr double kFlatDegTol = 0.03;
constexpr double kHierDegTol = 0.01;
constexpr double kClusTol = 0.03;

Scores Score(const graph::Graph& observed, const graph::Graph& generated) {
  util::Rng eval_rng(5);
  eval::CommunityMetrics community =
      eval::EvaluateCommunityPreservation(observed, generated, eval_rng);
  eval::GenerationMetrics structure =
      eval::ComputeGenerationMetrics(observed, generated, eval_rng);
  return {community.nmi, community.ari, structure.deg, structure.clus};
}

TEST(FidelityTest, PpiLikeMatchesPinnedTableScores) {
  const graph::Graph observed = data::MakeDataset("ppi_like");
  ASSERT_EQ(observed.num_nodes(), 480);
  const std::string previous = k::Active().name;
  int checked = 0;
  for (const k::KernelOps* backend : k::AvailableBackends()) {
    const BackendPins* pins = nullptr;
    for (const BackendPins& p : kPins) {
      if (std::string(p.backend) == backend->name) pins = &p;
    }
    if (pins == nullptr) continue;
    ASSERT_TRUE(k::SetBackend(backend->name));
    ++checked;
    core::CpganConfig config;
    config.seed = 3;
    core::Cpgan model(config);
    model.Fit(observed);
    for (bool hierarchical : {false, true}) {
      core::GenerateControls controls;
      controls.hierarchical = hierarchical;
      util::Rng rng(17);
      graph::Graph generated = model.GenerateWith(controls, rng);
      ASSERT_EQ(generated.num_nodes(), observed.num_nodes());
      const Scores got = Score(observed, generated);
      const Scores& want = hierarchical ? pins->hier : pins->flat;
      const std::string where = std::string(pins->backend) +
                                (hierarchical ? " hierarchical" : " flat");
      std::printf("%s: nmi %.4f ari %.4f deg_mmd %.4f clus_mmd %.4f\n",
                  where.c_str(), got.nmi, got.ari, got.deg_mmd,
                  got.clus_mmd);
      EXPECT_NEAR(got.nmi, want.nmi, kCommunityTol) << where;
      EXPECT_NEAR(got.ari, want.ari, kCommunityTol) << where;
      EXPECT_NEAR(got.deg_mmd, want.deg_mmd,
                  hierarchical ? kHierDegTol : kFlatDegTol)
          << where;
      EXPECT_NEAR(got.clus_mmd, want.clus_mmd, kClusTol) << where;
    }
  }
  EXPECT_TRUE(k::SetBackend(previous));
  // The scalar backend is always compiled in, so at least it was checked.
  EXPECT_GE(checked, 1);
}

}  // namespace
}  // namespace cpgan
