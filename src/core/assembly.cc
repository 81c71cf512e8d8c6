#include "core/assembly.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "obs/trace.h"
#include "util/check.h"

namespace cpgan::core {
namespace {

// The categorical step runs the prefix sums of four rows side by side:
// each row is still one left-to-right chain, but the four are independent,
// so their additions overlap instead of waiting on each other.
constexpr int kCategoricalRows = 4;

/// Running sums of max(0, w) along four rows at once, each left to right.
static_assert(kCategoricalRows == 4, "PrefixSums runs four chains");
void PrefixSums(const float* const w[kCategoricalRows],
                double* const out[kCategoricalRows], int count) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  for (int j = 0; j < count; ++j) {
    out[0][j] = a0 += std::max(0.0f, w[0][j]);
    out[1][j] = a1 += std::max(0.0f, w[1][j]);
    out[2][j] = a2 += std::max(0.0f, w[2][j]);
    out[3][j] = a3 += std::max(0.0f, w[3][j]);
  }
}

// The fill buckets its 31-bit keys by their top 12 bits: the float's
// exponent and top four mantissa bits, 16 buckets per octave.
constexpr int kBucketBits = 12;
constexpr int kBucketShift = 31 - kBucketBits;
constexpr int kBuckets = 1 << kBucketBits;

// A chunk's pair (i, j) is packed as i·k + j, below k² ≤ 2^32.
constexpr int kMaxChunk = 1 << 16;

/// Bits of the least float above 1e-9 as a double: the floats whose bits
/// lie in [kFloorBits, +inf] are exactly those with double(p) > 1e-9.
constexpr uint32_t kFloorBits =
    std::bit_cast<uint32_t>(1e-9f) +
    (static_cast<double>(1e-9f) > 1e-9 ? 0u : 1u);
static_assert(static_cast<double>(std::bit_cast<float>(kFloorBits)) > 1e-9);
static_assert(static_cast<double>(std::bit_cast<float>(kFloorBits - 1)) <=
              1e-9);
constexpr uint32_t kInfBits = 0x7F800000u;

/// High word of a pair's fill key: 0x7FFFFFFF minus the rank bits, so
/// ascending keys run probability descending. The rank bits are the
/// float's own bits above the 1e-9 floor, where positive floats order like
/// their bits; below it (and for ±0, negatives and NaN, whose bits fall
/// outside [kFloorBits, kInfBits]) they are 0, one class that
/// max(1e-9, p) ties.
uint32_t FillKey(float p) {
  const uint32_t bits = std::bit_cast<uint32_t>(p);
  const uint32_t rank = bits - kFloorBits <= kInfBits - kFloorBits ? bits : 0u;
  return 0x7FFFFFFFu - rank;
}

/// Open-addressing set of edges u < v packed as u·2^32 + v, so the 0 that
/// marks an empty slot is never a key. It starts at 16 slots and doubles
/// at half load: it grows with the edges taken, at most
/// min(target_edges, n(n-1)/2), never with target_edges alone.
class EdgeTable {
 public:
  EdgeTable() : slots_(16, 0) {}

  int64_t size() const { return size_; }

  /// Adds the edge {a, b}, a != b; false if it was already there.
  bool Insert(int a, int b) {
    if (2 * (size_ + 1) > static_cast<int64_t>(slots_.size())) Grow();
    const uint64_t key = (static_cast<uint64_t>(std::min(a, b)) << 32) |
                         static_cast<uint32_t>(std::max(a, b));
    if (!Place(key)) return false;
    ++size_;
    return true;
  }

  /// The edges in slot order; the Graph constructor sorts them.
  std::vector<graph::Edge> Edges() const {
    std::vector<graph::Edge> edges;
    edges.reserve(static_cast<size_t>(size_));
    for (uint64_t key : slots_) {
      if (key != 0) {
        edges.emplace_back(static_cast<int>(key >> 32),
                           static_cast<int>(key & 0xFFFFFFFFu));
      }
    }
    return edges;
  }

 private:
  bool Place(uint64_t key) {
    const size_t mask = slots_.size() - 1;
    size_t s = (key * 0x9E3779B97F4A7C15ULL) >> shift_;
    for (;; s = (s + 1) & mask) {
      if (slots_[s] == key) return false;
      if (slots_[s] == 0) {
        slots_[s] = key;
        return true;
      }
    }
  }

  void Grow() {
    std::vector<uint64_t> old(slots_.size() * 2, 0);
    old.swap(slots_);
    --shift_;
    for (uint64_t key : old) {
      if (key != 0) Place(key);
    }
  }

  std::vector<uint64_t> slots_;
  int shift_ = 64 - 4;  // log2(16) index bits
  int64_t size_ = 0;
};

}  // namespace

namespace internal {

int DrawFromPrefix(const double* prefix, const float* weights, int count,
                   double r) {
  const double* hit = std::upper_bound(prefix, prefix + count, r);
  if (hit != prefix + count) return static_cast<int>(hit - prefix);
  int last = count - 1;
  while (last >= 0 && !(weights[last] > 0.0f)) --last;
  return last;
}

}  // namespace internal

graph::Graph AssembleGraph(int num_nodes, int64_t target_edges,
                           const SubgraphScorer& scorer,
                           const AssemblyOptions& options, util::Rng& rng) {
  CPGAN_CHECK_GE(num_nodes, 0);
  CPGAN_CHECK_GE(target_edges, 0);
  if (options.aborted != nullptr) *options.aborted = false;
  if (num_nodes < 2 || target_edges == 0) {
    return graph::Graph(num_nodes, {});
  }
  int ns = std::min(options.subgraph_size, num_nodes);
  int chunks_per_pass = (num_nodes + ns - 1) / ns;

  double total_pairs = 0.5 * num_nodes * (num_nodes - 1.0);

  std::vector<int> perm(num_nodes);
  for (int i = 0; i < num_nodes; ++i) perm[i] = i;

  auto aborting = [&options]() {
    if (!options.should_abort || !options.should_abort()) return false;
    if (options.aborted != nullptr) *options.aborted = true;
    return true;
  };

  EdgeTable edges;
  auto full = [&] { return edges.size() >= target_edges; };
  // Per-chunk scratch, reused across chunks.
  std::vector<double> prefix;
  std::vector<uint32_t> histogram(kBuckets);
  std::vector<uint64_t> keys;

  for (int pass = 0; pass < options.max_passes && !full(); ++pass) {
    if (aborting()) break;
    rng.Shuffle(perm);
    for (int chunk = 0; chunk < chunks_per_pass; ++chunk) {
      if (full()) break;
      if (aborting()) break;
      int begin = chunk * ns;
      int end = std::min(num_nodes, begin + ns);
      std::vector<int> ids(perm.begin() + begin, perm.begin() + end);
      std::sort(ids.begin(), ids.end());
      int k = static_cast<int>(ids.size());
      if (k < 2) continue;
      CPGAN_CHECK_LE(k, kMaxChunk);
      tensor::Matrix probs = scorer(ids);
      CPGAN_CHECK_EQ(probs.rows(), k);
      CPGAN_CHECK_EQ(probs.cols(), k);
      // No self-loops: the categorical weight of (i, i) is 0, and the fill
      // reads only j > i.
      for (int i = 0; i < k; ++i) probs.Row(i)[i] = 0.0f;

      // Step 1: one categorical edge per node (keeps low-degree nodes in).
      // Row i's weights are max(0, p); their running sums are the prefix,
      // and its last entry the total, bit for bit Rng::Categorical's. A row
      // with positive total draws one Uniform(), in row order.
      {
        CPGAN_TRACE_SPAN("assembly/categorical");
        prefix.resize(static_cast<size_t>(kCategoricalRows) * k);
        for (int i0 = 0; i0 < k && !full(); i0 += kCategoricalRows) {
          const int rows = std::min(kCategoricalRows, k - i0);
          // A short last group repeats its last row and ignores the copies.
          const float* weights[kCategoricalRows];
          double* sums[kCategoricalRows];
          for (int r = 0; r < kCategoricalRows; ++r) {
            weights[r] = probs.Row(i0 + std::min(r, rows - 1));
            sums[r] = prefix.data() + static_cast<size_t>(r) * k;
          }
          PrefixSums(weights, sums, k);
          for (int r = 0; r < rows && !full(); ++r) {
            const double total = sums[r][k - 1];
            if (total <= 0.0) continue;
            const int j = internal::DrawFromPrefix(sums[r], weights[r], k,
                                                   rng.Uniform() * total);
            edges.Insert(ids[i0 + r], ids[j]);
          }
        }
      }
      if (full()) break;

      // Step 2: top-k fill proportional to the subset's share of all pairs.
      // A quota of chunk_pairs already takes every pair, so the clamp moves
      // no fill and keeps the cast defined for targets near INT64_MAX.
      CPGAN_TRACE_SPAN("assembly/fill");
      double chunk_pairs = 0.5 * k * (k - 1.0);
      int64_t quota = static_cast<int64_t>(std::min(
          static_cast<double>(target_edges) * chunk_pairs / total_pairs * 1.5,
          chunk_pairs));
      quota = std::max<int64_t>(quota, k / 2);
      // Pair (i, j), i < j, has the key FillKey(p)·2^32 + i·k + j. Since
      // ids is sorted, ascending keys are the total order key descending,
      // then (u, v) ascending, so tied keys (saturated 1.0f, the 1e-9
      // floor, repeated table rows) fill in node-pair order.
      std::fill(histogram.begin(), histogram.end(), 0);
      for (int i = 0; i < k; ++i) {
        const float* row = probs.Row(i);
        for (int j = i + 1; j < k; ++j) {
          ++histogram[FillKey(row[j]) >> kBucketShift];
        }
      }
      // The fill reads quota keys plus one per pair already taken, and
      // step 1 took at most k of this chunk's pairs. So collect the best
      // buckets holding at least quota + k keys, select and sort those a
      // block of quota + k at a time, and collect the next buckets when
      // taken pairs use the range up: the same pairs in the same order as
      // sorting everything.
      const int64_t block = quota + k;
      auto filling = [&] { return quota > 0 && !full(); };
      int next_bucket = 0;
      size_t next = 0;
      keys.clear();
      while (filling()) {
        if (next == keys.size()) {
          if (next_bucket == kBuckets) break;
          int64_t count = 0;
          int end_bucket = next_bucket;
          while (end_bucket < kBuckets && count < block) {
            count += histogram[end_bucket++];
          }
          const uint32_t low = static_cast<uint32_t>(next_bucket)
                               << kBucketShift;
          const uint32_t width = static_cast<uint32_t>(end_bucket - next_bucket)
                                 << kBucketShift;
          keys.clear();
          next = 0;
          for (int i = 0; i < k; ++i) {
            const float* row = probs.Row(i);
            const uint64_t base = static_cast<uint64_t>(i) * k;
            for (int j = i + 1; j < k; ++j) {
              const uint32_t key = FillKey(row[j]);
              if (key - low < width) {
                keys.push_back((uint64_t{key} << 32) | (base + j));
              }
            }
          }
          next_bucket = end_bucket;
        }
        const auto first = keys.begin() + static_cast<std::ptrdiff_t>(next);
        const auto last =
            keys.end() - first > block ? first + block : keys.end();
        std::nth_element(first, last, keys.end());
        std::sort(first, last);
        for (auto it = first; it != last && filling(); ++it, ++next) {
          const uint32_t pair = static_cast<uint32_t>(*it);
          if (edges.Insert(ids[pair / k], ids[pair % k])) --quota;
        }
      }
    }
  }
  return graph::Graph(num_nodes, edges.Edges());
}

}  // namespace cpgan::core
