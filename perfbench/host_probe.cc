#include "host_probe.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdio>

#include "util/timer.h"

namespace cpgan::perfbench {
namespace {

constexpr int kDim = 64;  // compute part: kDim^3 multiply-adds a pass
constexpr int kFloatPasses = 48;
constexpr size_t kMemoryBytes = size_t{2} << 20;  // memory part: 2 MiB
constexpr int kTextLines = 60000;

/// Fixed 64-bit LCG, so the probe is the same work on every run.
uint64_t NextLcg(uint64_t* state) {
  *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
  return *state >> 16;
}

}  // namespace

HostProbe::HostProbe() : a_(kDim * kDim), b_(kDim * kDim), c_(kDim * kDim) {
  uint64_t state = 42;
  for (int i = 0; i < kDim * kDim; ++i) {
    a_[i] = static_cast<float>(NextLcg(&state) % 1000) * 1e-3f;
    b_[i] = static_cast<float>(NextLcg(&state) % 1000) * 1e-3f;
  }
  char line[32];
  for (int i = 0; i < kTextLines; ++i) {
    std::snprintf(line, sizeof(line), "%u %u\n",
                  static_cast<unsigned>(NextLcg(&state) % 200000),
                  static_cast<unsigned>(NextLcg(&state) % 200000));
    text_ += line;
  }
}

double HostProbe::Measure() {
  util::Timer timer;
  std::fill(c_.begin(), c_.end(), 0.0f);
  for (int pass = 0; pass < kFloatPasses; ++pass) {
    for (int i = 0; i < kDim; ++i) {
      for (int k = 0; k < kDim; ++k) {
        const float x = a_[i * kDim + k];
        for (int j = 0; j < kDim; ++j) c_[i * kDim + j] += x * b_[k * kDim + j];
      }
    }
  }

  // Mapped directly, so every measurement faults in fresh pages whatever
  // the allocator's state.
  uint32_t words_sum = 0;
  void* mapped = mmap(nullptr, kMemoryBytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapped != MAP_FAILED) {
    auto* words = static_cast<uint32_t*>(mapped);
    const size_t n = kMemoryBytes / sizeof(uint32_t);
    for (size_t i = 0; i < n; ++i) {
      words[i] = static_cast<uint32_t>(i * 2654435761u);
    }
    for (size_t i = 0; i < n; ++i) words_sum += words[i];
    munmap(mapped, kMemoryBytes);
  }

  uint64_t sum = 0, value = 0;
  for (char ch : text_) {
    if (ch >= '0' && ch <= '9') {
      value = value * 10 + static_cast<uint64_t>(ch - '0');
    } else {
      sum += value;
      value = 0;
    }
  }

  sink_ += sum + words_sum + static_cast<uint64_t>(c_[kDim + 1]);
  last_ms_ = timer.Millis();
  return last_ms_;
}

}  // namespace cpgan::perfbench
