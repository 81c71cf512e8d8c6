#ifndef CPGAN_UTIL_CRC32_H_
#define CPGAN_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace cpgan::util {

/// Incremental CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant).
///
/// Usage:
///   Crc32 crc;
///   crc.Update(buf, len);
///   uint32_t digest = crc.Digest();
///
/// Used by the checkpoint file (train/checkpoint.h) to detect bit rot and
/// truncation before any state is committed to a live model.
class Crc32 {
 public:
  /// Feeds `len` bytes into the running checksum.
  void Update(const void* data, size_t len);

  /// Final checksum over everything fed so far. Does not reset state, so the
  /// digest can be read mid-stream (used for header-then-body layouts).
  uint32_t Digest() const { return state_ ^ 0xFFFFFFFFu; }

  /// Resets to the empty-input state.
  void Reset() { state_ = 0xFFFFFFFFu; }

 private:
  uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot convenience over a single buffer.
uint32_t Crc32Of(const void* data, size_t len);

}  // namespace cpgan::util

#endif  // CPGAN_UTIL_CRC32_H_
