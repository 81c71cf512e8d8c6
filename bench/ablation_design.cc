// Ablation benches for this repo's own design choices (DESIGN.md §5-6),
// beyond the paper's Table VI:
//   1. The fast-LR parameter group (decoder + node features at a higher
//      Adam rate) vs a single uniform learning rate.
//   2. Discriminator update cadence (every epoch vs every other epoch).
//   3. The A + A^2 two-hop adjacency variant mentioned in Section III-C1.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/cpgan.h"
#include "eval/community_eval.h"
#include "eval/graph_metrics.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table.h"

namespace {

using namespace cpgan;

void Evaluate(const std::string& label, core::CpganConfig config,
              const graph::Graph& observed, util::Table& table) {
  core::Cpgan model(config);
  model.Fit(observed);
  graph::Graph generated = model.Generate();
  util::Rng rng(41);
  eval::CommunityMetrics cm =
      eval::EvaluateCommunityPreservation(observed, generated, rng);
  eval::GenerationMetrics gm =
      eval::ComputeGenerationMetrics(observed, generated, rng);
  table.AddRow({label, util::FormatCompact(cm.nmi),
                util::FormatCompact(cm.ari), util::FormatCompact(gm.deg),
                util::FormatCompact(gm.clus)});
  std::printf("finished %s\n", label.c_str());
  std::fflush(stdout);
}

}  // namespace

int main() {
  graph::Graph observed = bench::BenchDataset("citeseer_like");
  std::printf(
      "Design-choice ablations on citeseer_like (NMI/ARI higher better, "
      "Deg./Clus. lower better)\n\n");
  util::Table table({"Configuration", "NMI", "ARI", "Deg.", "Clus."});

  core::CpganConfig base = bench::BenchCpganConfig(250, 12);

  Evaluate("baseline (fast-lr 20x, D every 2)", base, observed, table);

  core::CpganConfig uniform_lr = base;
  uniform_lr.fast_lr_multiplier = 1.0f;
  Evaluate("uniform learning rate (no fast group)", uniform_lr, observed,
           table);

  core::CpganConfig every_epoch_d = base;
  every_epoch_d.disc_every = 1;
  every_epoch_d.prior_every = 1;
  Evaluate("strict alternation (D + prior every epoch)", every_epoch_d,
           observed, table);

  core::CpganConfig two_hop = base;
  two_hop.use_two_hop_adjacency = true;
  Evaluate("A + A^2 two-hop adjacency", two_hop, observed, table);

  std::printf("\n");
  table.Print();
  return 0;
}
