#ifndef CPGAN_UTIL_ALIGNED_H_
#define CPGAN_UTIL_ALIGNED_H_

#include <cstddef>
#include <cstdint>

namespace cpgan::util {

/// Alignment of every float buffer handed to the SIMD kernel backends: one
/// cache line, so a 16-float AVX-512 (or two 8-float AVX2) load never splits
/// a line and never needs a masked prologue when the count is a lane
/// multiple.
inline constexpr size_t kKernelAlignment = 64;

/// Bytes actually reserved for `bytes` of payload: std::aligned_alloc
/// requires the size to be a multiple of the alignment, so allocations round
/// up to the next cache line. Exposed so MemoryTracker accounting (and its
/// tests) can state the exact figure.
size_t AlignedAllocationBytes(size_t bytes);

/// Fixed-capacity float array, 64-byte aligned, MemoryTracker-registered.
///
/// Replaces std::vector<float> as Matrix storage. Two deliberate
/// differences: the data pointer is always kKernelAlignment-aligned, and the
/// bytes reported to util::MemoryTracker are the *rounded* allocation size
/// (AlignedAllocationBytes), so the serve degradation ladder's
/// memory-pressure thresholds see the real footprint, padding included.
class AlignedFloats {
 public:
  AlignedFloats() = default;
  ~AlignedFloats() { clear(); }

  AlignedFloats(const AlignedFloats& other);
  AlignedFloats& operator=(const AlignedFloats& other);
  AlignedFloats(AlignedFloats&& other) noexcept;
  AlignedFloats& operator=(AlignedFloats&& other) noexcept;

  /// Replaces the contents with `n` copies of `value`. Always reallocates to
  /// exactly `n` elements (Matrix storage never grows incrementally).
  void assign(int64_t n, float value);

  /// Replaces the contents with `n` uninitialized-then-zeroed elements
  /// without a fill when n == 0. Equivalent to assign(n, 0.0f).
  void resize(int64_t n) { assign(n, 0.0f); }

  /// Replaces the contents with `n` uninitialized elements, tracked like
  /// assign(). For outputs that write every element before any is read.
  void AllocateRaw(int64_t n);

  /// Frees the buffer (size() becomes 0; deallocation is reported).
  void clear();

  int64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  float* data() { return data_; }
  const float* data() const { return data_; }

  float& operator[](int64_t i) { return data_[i]; }
  float operator[](int64_t i) const { return data_[i]; }

  float* begin() { return data_; }
  float* end() { return data_ + size_; }
  const float* begin() const { return data_; }
  const float* end() const { return data_ + size_; }

 private:
  float* data_ = nullptr;
  int64_t size_ = 0;
  size_t tracked_bytes_ = 0;  // rounded figure reported to MemoryTracker
};

}  // namespace cpgan::util

#endif  // CPGAN_UTIL_ALIGNED_H_
