#ifndef CPGAN_TRAIN_CHECKPOINT_H_
#define CPGAN_TRAIN_CHECKPOINT_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace cpgan::train {

/// \file
/// Training checkpoints: epoch marker + architecture fingerprint + the full
/// parameter set, in a single crash-safe file. It is the one model file:
/// Train writes it every `checkpoint_every` epochs, Cpgan::SaveWeights
/// writes it on demand, and WarmStart and ResumeFrom read it.
///
/// On-disk layout (little-endian):
///
///   u32 magic        "CPCK" (0x4B435043)
///   u32 version      1
///   i32 epoch        epochs fully completed when the checkpoint was taken
///   u64 config_hash  architecture fingerprint (see HashFields)
///   u32 header_crc32 over the four fields above
///   tensor block:
///     u32 magic      "CPG2" (0x32475043)
///     u32 version    2
///     u32 count      number of tensors
///     per tensor:
///       i32 rows
///       i32 cols
///       u32 crc32    of the rows*cols row-major float payload
///       f32 data[rows*cols]
///     u32 block_crc32 over every preceding byte of the block
///
/// The header and block checksums turn truncation and header corruption
/// into load failures; the per-tensor checksums localize payload bit rot.
/// A count or shape that the bytes left in the file cannot hold fails as
/// truncated, before anything of that size is allocated. Writes are atomic
/// (tmp + fsync + rename); loads are transactional — the whole file is
/// parsed and validated before any model parameter changes.

/// Non-tensor checkpoint payload.
struct CheckpointMeta {
  /// Number of epochs fully completed; resume starts at this epoch index.
  int epoch = 0;

  /// Fingerprint of architecture-relevant config (0 = don't validate).
  /// Loads fail when the stored and expected hashes are both nonzero and
  /// differ, catching resume-into-the-wrong-model mistakes early.
  uint64_t config_hash = 0;
};

/// Writes `meta` plus `params` to `path` atomically. Returns false on IO
/// failure.
bool SaveCheckpoint(const std::string& path, const CheckpointMeta& meta,
                    const std::vector<tensor::Tensor>& params);

/// Loads a checkpoint into `meta` and `params`. `expected_config_hash`
/// follows CheckpointMeta::config_hash semantics. On any failure (IO,
/// checksum, version, architecture or shape mismatch) `meta` and `params`
/// are left untouched and `error` (if non-null) explains why.
bool LoadCheckpoint(const std::string& path, CheckpointMeta* meta,
                    std::vector<tensor::Tensor>& params,
                    uint64_t expected_config_hash = 0,
                    std::string* error = nullptr);

/// Parses and checksum-validates a checkpoint without touching any model:
/// header magic/version/CRC, tensor-block CRCs, and (when both are nonzero)
/// the architecture hash. Fills `meta` on success. Used to vet a resume
/// target before the model is even constructed; shape validation against a
/// live parameter set still happens in LoadCheckpoint.
bool ValidateCheckpoint(const std::string& path, CheckpointMeta* meta,
                        uint64_t expected_config_hash = 0,
                        std::string* error = nullptr);

/// Canonical file name for the checkpoint taken after `epoch` epochs:
/// `<dir>/ckpt_<epoch>.cpck`.
std::string CheckpointPath(const std::string& dir, int epoch);

/// Scans `dir` for `ckpt_<epoch>.cpck` files and returns the one with the
/// highest epoch, or an empty string when none exist.
std::string LatestCheckpoint(const std::string& dir);

/// FNV-1a over a field list — the architecture fingerprint helper used to
/// fill CheckpointMeta::config_hash. Never returns 0 (the "don't validate"
/// sentinel).
uint64_t HashFields(const std::vector<int64_t>& fields);
uint64_t HashFields(std::initializer_list<int64_t> fields);

}  // namespace cpgan::train

#endif  // CPGAN_TRAIN_CHECKPOINT_H_
