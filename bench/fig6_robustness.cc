// Reproduces Figure 6: model robustness under hyper-parameter changes.
//  Left: the spread of generation quality (degree MMD) over a shared
//        architecture grid (hidden x latent dimensions) for models with
//        similar architectures (VGAE, Graphite, CondGen-R, CPGAN) — a robust
//        model has a low mean and a small spread.
//  Right: CPGAN's training-strategy grid (learning rate x decay), the sweep
//        the paper uses to justify lr 1e-3 with decay 0.3.
//
// Expected shape: CPGAN's spread is clearly smaller than the baselines'.

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/condgen.h"
#include "baselines/graphite.h"
#include "baselines/vgae.h"
#include "bench/bench_util.h"
#include "core/cpgan.h"
#include "eval/graph_metrics.h"
#include "eval/report.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table.h"

namespace {

using cpgan::graph::Graph;

double DegMetric(const Graph& observed, const Graph& generated) {
  cpgan::util::Rng rng(17);
  return cpgan::eval::ComputeGenerationMetrics(observed, generated, rng).deg;
}

}  // namespace

int main() {
  using namespace cpgan;
  graph::Graph observed = bench::BenchDataset("ppi_like");
  const std::vector<std::pair<int, int>> grid = {
      {16, 8}, {32, 16}, {64, 32}};
  std::printf(
      "Figure 6 analogue (left): degree-MMD spread across a hidden x latent "
      "grid on ppi_like (lower mean and spread are better)\n\n");

  util::Table left({"Model", "mean Deg.", "std Deg.", "max Deg."});
  const std::vector<std::string> models = {"VGAE", "Graphite", "CondGen-R",
                                           "CPGAN"};
  for (const std::string& model : models) {
    std::vector<double> metrics;
    for (const auto& [hidden, latent] : grid) {
      double value = 0.0;
      if (model == "CPGAN") {
        core::CpganConfig config = bench::BenchCpganConfig(200, 3);
        config.hidden_dim = hidden;
        config.latent_dim = latent;
        core::Cpgan m(config);
        m.Fit(observed);
        value = DegMetric(observed, m.Generate());
      } else if (model == "CondGen-R") {
        baselines::CondGenR m(150, 3);
        m.Fit(observed);
        value = DegMetric(observed, m.Generate());
      } else {
        baselines::VgaeConfig config;
        config.hidden_dim = hidden;
        config.latent_dim = latent;
        config.epochs = 200;
        config.seed = 3;
        if (model == "VGAE") {
          baselines::Vgae m(config);
          m.Fit(observed);
          value = DegMetric(observed, m.Generate());
        } else {
          baselines::Graphite m(config);
          m.Fit(observed);
          value = DegMetric(observed, m.Generate());
        }
      }
      metrics.push_back(value);
      std::printf("finished %s hidden=%d latent=%d\n", model.c_str(), hidden,
                  latent);
      std::fflush(stdout);
    }
    double max_value = 0.0;
    for (double v : metrics) max_value = std::max(max_value, v);
    left.AddRow({model, util::FormatCompact(eval::Mean(metrics)),
                 util::FormatCompact(eval::Stddev(metrics)),
                 util::FormatCompact(max_value)});
  }
  left.Print();

  std::printf(
      "\nFigure 6 analogue (right): CPGAN training-strategy grid "
      "(degree MMD; lower is better)\n\n");
  util::Table right({"lr", "decay", "Deg."});
  for (float lr : {3e-4f, 1e-3f, 3e-3f}) {
    for (float decay : {1.0f, 0.3f}) {
      core::CpganConfig config = bench::BenchCpganConfig(200, 4);
      config.learning_rate = lr;
      config.lr_decay = decay;
      config.lr_decay_every = 200;
      core::Cpgan m(config);
      m.Fit(observed);
      double value = DegMetric(observed, m.Generate());
      right.AddRow({util::FormatCompact(lr), util::FormatCompact(decay),
                    util::FormatCompact(value)});
      std::printf("finished lr=%g decay=%g\n", lr, decay);
      std::fflush(stdout);
    }
  }
  right.Print();
  return 0;
}
