#include "serve/registry.h"

#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"

namespace cpgan::serve {

std::mutex& KernelLock() {
  static std::mutex lock;
  return lock;
}

std::shared_ptr<ServableModel> ServableModel::Create(const ModelSpec& spec,
                                                     std::string* error,
                                                     ChaosInjector* chaos) {
  auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return nullptr;
  };
  if (chaos != nullptr && chaos->ConsumeLoadFault()) {
    return fail("injected transient load failure");
  }
  auto servable = std::shared_ptr<ServableModel>(new ServableModel());
  servable->model_ = std::make_unique<core::Cpgan>(spec.config);
  {
    std::lock_guard<std::mutex> kernel(KernelLock());
    if (!spec.checkpoint.empty()) {
      std::string warm_error;
      if (!servable->model_->WarmStart(spec.graph, spec.checkpoint,
                                       &warm_error)) {
        return fail("warm-load of '" + spec.checkpoint +
                    "' failed: " + warm_error);
      }
    } else {
      servable->model_->Fit(spec.graph);
    }
    if (!servable->model_->trained()) {
      return fail("model '" + spec.name + "' is untrained after build");
    }
  }
  servable->observed_nodes_ = spec.graph.num_nodes();
  servable->observed_edges_ = spec.graph.num_edges();
  servable->checkpoint_ = spec.checkpoint;
  return servable;
}

bool ModelRegistry::AddModel(const ModelSpec& spec, std::string* error,
                             ChaosInjector* chaos) {
  std::shared_ptr<ServableModel> model =
      ServableModel::Create(spec, error, chaos);
  if (model == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[spec.name];
  entry.spec = spec;
  entry.version += 1;
  model->version_ = entry.version;
  entry.model = std::move(model);
  return true;
}

std::shared_ptr<const ServableModel> ModelRegistry::Find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second.model;
}

std::vector<std::string> ModelRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

bool ModelRegistry::Reload(const std::string& name,
                           const std::string& checkpoint,
                           const util::BackoffPolicy& backoff,
                           std::string* error, ChaosInjector* chaos) {
  ModelSpec spec;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      if (error != nullptr) *error = "unknown model '" + name + "'";
      return false;
    }
    spec = it->second.spec;
  }
  spec.checkpoint = checkpoint;

  // Each attempt builds + validates a full candidate; the installed model
  // keeps serving throughout (builds interleave with decodes on
  // KernelLock). A checkpoint that fails validation is definitive, but the
  // backoff loop treats every failure as retryable: a torn read during an
  // in-flight atomic replace heals on a later attempt, and a truly corrupt
  // file just spends the (bounded) retry budget before reporting.
  std::shared_ptr<ServableModel> candidate;
  std::string attempt_error;
  util::Rng retry_rng(spec.config.seed ^ 0x9E1E7E57A11ULL);
  util::RetryResult retry = util::RetryWithBackoff(
      backoff, retry_rng, [&]() {
        candidate = ServableModel::Create(spec, &attempt_error, chaos);
        return candidate != nullptr;
      });
  CPGAN_COUNTER_ADD("serve.retries", static_cast<uint64_t>(retry.retries()));
  if (!retry.ok) {
    CPGAN_COUNTER_ADD("serve.reload_failures", 1);
    CPGAN_LOG(Warning) << "Reload of model '" << name << "' from '"
                       << checkpoint << "' failed after " << retry.attempts
                       << " attempt(s): " << attempt_error
                       << "; old model keeps serving";
    if (error != nullptr) *error = attempt_error;
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Entry& entry = entries_[name];
    entry.spec = spec;
    entry.version += 1;
    candidate->version_ = entry.version;
    entry.model = std::move(candidate);
  }
  CPGAN_COUNTER_ADD("serve.reloads", 1);
  return true;
}

}  // namespace cpgan::serve
