#ifndef CPGAN_SERVE_REGISTRY_H_
#define CPGAN_SERVE_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/cpgan.h"
#include "graph/graph.h"
#include "serve/chaos.h"
#include "util/backoff.h"
#include "util/rng.h"

namespace cpgan::serve {

/// A process-wide mutex that nothing in the library takes: decodes and
/// model builds run concurrently, because the thread pool accepts parallel
/// regions from several threads (util/thread_pool.h). It stays only because
/// the repository benchmark still locks it (CheckServeReplays in
/// perfbench/perfbench.cc), and the benchmark changes separately from the
/// program. Delete it together with that call.
std::mutex& KernelLock();

/// How to build one servable model.
struct ModelSpec {
  std::string name = "default";
  core::CpganConfig config;

  /// Observed graph the model is conditioned on (owned by the spec; reloads
  /// rebuild against the same graph).
  graph::Graph graph{0};

  /// Checkpoint to warm-load (CRC + architecture-hash validated). Empty =
  /// train in-process for config.epochs (tests and demos).
  std::string checkpoint;
};

/// An immutable trained model. The model encodes its observed graph once
/// at load time; Generate() is const and safe to call from any number of
/// workers at once.
class ServableModel {
 public:
  /// Builds (warm-load or in-process train) a model; may run while other
  /// threads decode. Returns nullptr with `error` set on failure; `chaos`,
  /// if given, may inject one transient load failure per attempt.
  /// The result is mutable only so the registry can stamp version(); it is
  /// stored and served as const.
  static std::shared_ptr<ServableModel> Create(const ModelSpec& spec,
                                               std::string* error,
                                               ChaosInjector* chaos);

  /// Decodes one graph with a caller-owned RNG stream (Cpgan::GenerateWith).
  graph::Graph Generate(const core::GenerateControls& controls,
                        util::Rng& rng) const {
    return model_->GenerateWith(controls, rng);
  }

  int observed_nodes() const { return observed_nodes_; }
  int64_t observed_edges() const { return observed_edges_; }
  const std::string& checkpoint() const { return checkpoint_; }

  /// Monotone per-name load generation, assigned by the registry (1 = first
  /// load). 0 until the registry adopts the model.
  uint64_t version() const { return version_; }

 private:
  friend class ModelRegistry;
  ServableModel() = default;

  std::unique_ptr<core::Cpgan> model_;
  int observed_nodes_ = 0;
  int64_t observed_edges_ = 0;
  std::string checkpoint_;
  uint64_t version_ = 0;
};

/// Named registry of warm models with atomic hot-reload: readers grab a
/// shared_ptr snapshot and keep serving it even while a reload builds and
/// validates a replacement; the swap is a pointer store under the registry
/// mutex. A failed reload (corrupt checkpoint, transient fault that
/// exhausts the backoff budget) leaves the old model serving.
class ModelRegistry {
 public:
  /// Builds and registers the model for `spec` (replacing any model with the
  /// same name). Returns false with `error` set on failure, leaving any
  /// existing entry untouched.
  bool AddModel(const ModelSpec& spec, std::string* error,
                ChaosInjector* chaos = nullptr);

  /// Current model for `name`, or nullptr. The snapshot stays valid (and
  /// immutable) for as long as the caller holds it, across any reloads.
  std::shared_ptr<const ServableModel> Find(const std::string& name) const;

  /// Registered model names, sorted.
  std::vector<std::string> Names() const;

  /// Hot-reloads `name` from `checkpoint`, retrying transient failures with
  /// backoff. The old model serves until the replacement validates; on
  /// definitive failure (unknown name, exhausted retries) returns false with
  /// `error` set and the old model still installed.
  bool Reload(const std::string& name, const std::string& checkpoint,
              const util::BackoffPolicy& backoff, std::string* error,
              ChaosInjector* chaos = nullptr);

 private:
  struct Entry {
    ModelSpec spec;
    std::shared_ptr<const ServableModel> model;
    uint64_t version = 0;
  };

  mutable std::mutex mutex_;  // guards the map; never held while building
  std::map<std::string, Entry> entries_;
};

}  // namespace cpgan::serve

#endif  // CPGAN_SERVE_REGISTRY_H_
