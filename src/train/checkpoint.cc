#include "train/checkpoint.h"

#include <dirent.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"
#include "util/crc32.h"
#include "util/fileio.h"

namespace cpgan::train {
namespace {

constexpr uint32_t kMagic = 0x4B435043u;       // "CPCK"
constexpr uint32_t kVersion = 1;
constexpr uint32_t kBlockMagic = 0x32475043u;  // "CPG2"
constexpr uint32_t kBlockVersion = 2;
constexpr const char* kPrefix = "ckpt_";
constexpr const char* kSuffix = ".cpck";

void SetError(std::string* error, const char* message) {
  if (error != nullptr) *error = message;
}

/// Writes `n` bytes, feeding them into `crc` as well.
bool WriteChecked(std::FILE* f, const void* data, size_t n,
                  util::Crc32& crc) {
  crc.Update(data, n);
  return std::fwrite(data, 1, n, f) == n;
}

/// Reads `n` bytes, feeding them into `crc` as well.
bool ReadChecked(std::FILE* f, void* data, size_t n, util::Crc32& crc) {
  if (std::fread(data, 1, n, f) != n) return false;
  crc.Update(data, n);
  return true;
}

/// Bytes left between the current position and EOF, or -1 if the stream is
/// not seekable. Guards shape fields against corrupt headers that would
/// otherwise trigger multi-gigabyte allocations before the payload read
/// fails.
int64_t RemainingBytes(std::FILE* f) {
  long pos = std::ftell(f);
  if (pos < 0) return -1;
  if (std::fseek(f, 0, SEEK_END) != 0) return -1;
  long end = std::ftell(f);
  if (std::fseek(f, pos, SEEK_SET) != 0) return -1;
  return end >= pos ? end - pos : -1;
}

/// Whether the bytes left can hold a rows x cols payload; false when they
/// cannot be counted. Compared in floats: rows * cols stays below 2^62, but
/// its byte count can pass 2^63.
bool PlausiblePayload(std::FILE* f, int32_t rows, int32_t cols) {
  const int64_t floats = static_cast<int64_t>(rows) * cols;
  const int64_t remaining = RemainingBytes(f);
  return remaining >= 0 &&
         floats <= remaining / static_cast<int64_t>(sizeof(float));
}

/// The tensor block after the header (layout in checkpoint.h), with its
/// own running checksum.
bool WriteTensorBlock(std::FILE* f, const std::vector<tensor::Tensor>& params) {
  util::Crc32 block_crc;
  uint32_t magic = kBlockMagic;
  uint32_t version = kBlockVersion;
  uint32_t count = static_cast<uint32_t>(params.size());
  bool ok = WriteChecked(f, &magic, sizeof(magic), block_crc) &&
            WriteChecked(f, &version, sizeof(version), block_crc) &&
            WriteChecked(f, &count, sizeof(count), block_crc);
  for (const tensor::Tensor& p : params) {
    if (!ok) break;
    int32_t rows = p.rows();
    int32_t cols = p.cols();
    size_t n = static_cast<size_t>(p.value().size());
    uint32_t payload_crc =
        util::Crc32Of(p.value().data(), n * sizeof(float));
    ok = WriteChecked(f, &rows, sizeof(rows), block_crc) &&
         WriteChecked(f, &cols, sizeof(cols), block_crc) &&
         WriteChecked(f, &payload_crc, sizeof(payload_crc), block_crc) &&
         (n == 0 ||
          WriteChecked(f, p.value().data(), n * sizeof(float), block_crc));
  }
  uint32_t digest = block_crc.Digest();
  return ok && std::fwrite(&digest, sizeof(digest), 1, f) == 1;
}

/// Parses and checksum-validates the tensor block into `out`.
bool ReadTensorBlock(std::FILE* f, std::vector<tensor::Matrix>* out,
                     std::string* error) {
  util::Crc32 block_crc;
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t count = 0;
  if (!ReadChecked(f, &magic, sizeof(magic), block_crc) ||
      !ReadChecked(f, &version, sizeof(version), block_crc) ||
      !ReadChecked(f, &count, sizeof(count), block_crc)) {
    SetError(error, "truncated tensor block header");
    return false;
  }
  if (magic != kBlockMagic) {
    SetError(error, "bad tensor block magic");
    return false;
  }
  if (version != kBlockVersion) {
    SetError(error, "unsupported tensor block version");
    return false;
  }
  // Every tensor takes at least its header (rows, cols, payload CRC), so a
  // count the bytes left cannot hold fails here, before it sizes anything.
  if (int64_t{count} * 12 > RemainingBytes(f)) {
    SetError(error, "truncated tensor block (count exceeds the file)");
    return false;
  }
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    int32_t rows = 0;
    int32_t cols = 0;
    uint32_t payload_crc = 0;
    if (!ReadChecked(f, &rows, sizeof(rows), block_crc) ||
        !ReadChecked(f, &cols, sizeof(cols), block_crc) ||
        !ReadChecked(f, &payload_crc, sizeof(payload_crc), block_crc) ||
        rows < 0 || cols < 0 || !PlausiblePayload(f, rows, cols)) {
      SetError(error, "truncated or invalid tensor header");
      return false;
    }
    tensor::Matrix m(rows, cols);
    size_t n = static_cast<size_t>(m.size());
    if (n > 0 && !ReadChecked(f, m.data(), n * sizeof(float), block_crc)) {
      SetError(error, "truncated tensor payload");
      return false;
    }
    if (util::Crc32Of(m.data(), n * sizeof(float)) != payload_crc) {
      SetError(error, "tensor payload checksum mismatch (corrupt file)");
      return false;
    }
    out->push_back(std::move(m));
  }
  uint32_t expected = block_crc.Digest();
  uint32_t stored = 0;
  if (std::fread(&stored, sizeof(stored), 1, f) != 1) {
    SetError(error, "missing tensor block checksum (truncated file)");
    return false;
  }
  if (stored != expected) {
    SetError(error, "tensor block checksum mismatch (corrupt file)");
    return false;
  }
  return true;
}

/// Header + checksum validation + tensor block into temporaries. Commits
/// nothing.
bool ParseStream(std::FILE* f, CheckpointMeta* meta,
                 std::vector<tensor::Matrix>* tensors,
                 uint64_t expected_config_hash, std::string* error) {
  util::Crc32 crc;
  uint32_t magic = 0;
  uint32_t version = 0;
  int32_t epoch = 0;
  uint64_t config_hash = 0;
  uint32_t stored_header_crc = 0;
  if (!ReadChecked(f, &magic, sizeof(magic), crc) ||
      !ReadChecked(f, &version, sizeof(version), crc) ||
      !ReadChecked(f, &epoch, sizeof(epoch), crc) ||
      !ReadChecked(f, &config_hash, sizeof(config_hash), crc) ||
      std::fread(&stored_header_crc, sizeof(stored_header_crc), 1, f) != 1) {
    SetError(error, "truncated checkpoint header");
    return false;
  }
  if (magic != kMagic) {
    SetError(error, "bad checkpoint magic");
    return false;
  }
  if (version != kVersion) {
    SetError(error, "unsupported checkpoint version");
    return false;
  }
  if (crc.Digest() != stored_header_crc) {
    SetError(error, "checkpoint header checksum mismatch (corrupt file)");
    return false;
  }
  if (epoch < 0) {
    SetError(error, "invalid checkpoint epoch");
    return false;
  }
  if (expected_config_hash != 0 && config_hash != 0 &&
      config_hash != expected_config_hash) {
    SetError(error, "checkpoint was taken with a different model "
                    "architecture (config hash mismatch)");
    return false;
  }
  if (!ReadTensorBlock(f, tensors, error)) return false;
  if (meta != nullptr) {
    meta->epoch = epoch;
    meta->config_hash = config_hash;
  }
  return true;
}

bool ParseCheckpoint(const std::string& path, CheckpointMeta* meta,
                     std::vector<tensor::Matrix>* tensors,
                     uint64_t expected_config_hash, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    SetError(error, "cannot open checkpoint file");
    return false;
  }
  const bool ok =
      ParseStream(f, meta, tensors, expected_config_hash, error);
  std::fclose(f);
  return ok;
}

}  // namespace

bool SaveCheckpoint(const std::string& path, const CheckpointMeta& meta,
                    const std::vector<tensor::Tensor>& params) {
  CPGAN_STOPWATCH_SCOPE("train/checkpoint_write");
  bool ok = util::AtomicWriteFile(path, [&meta, &params](std::FILE* f) {
    util::Crc32 crc;
    uint32_t magic = kMagic;
    uint32_t version = kVersion;
    int32_t epoch = meta.epoch;
    uint64_t config_hash = meta.config_hash;
    bool ok = WriteChecked(f, &magic, sizeof(magic), crc) &&
              WriteChecked(f, &version, sizeof(version), crc) &&
              WriteChecked(f, &epoch, sizeof(epoch), crc) &&
              WriteChecked(f, &config_hash, sizeof(config_hash), crc);
    uint32_t header_crc = crc.Digest();
    return ok && std::fwrite(&header_crc, sizeof(header_crc), 1, f) == 1 &&
           WriteTensorBlock(f, params);
  });
  if (ok) {
    CPGAN_COUNTER_ADD("train/checkpoints", 1);
  } else {
    CPGAN_COUNTER_ADD("train/checkpoint_failures", 1);
  }
  return ok;
}

bool LoadCheckpoint(const std::string& path, CheckpointMeta* meta,
                    std::vector<tensor::Tensor>& params,
                    uint64_t expected_config_hash, std::string* error) {
  CheckpointMeta parsed;
  std::vector<tensor::Matrix> loaded;
  if (!ParseCheckpoint(path, &parsed, &loaded, expected_config_hash, error)) {
    return false;
  }
  if (loaded.size() != params.size()) {
    SetError(error, "checkpoint tensor count mismatch");
    return false;
  }
  for (size_t i = 0; i < params.size(); ++i) {
    if (!loaded[i].SameShape(params[i].value())) {
      SetError(error, "checkpoint tensor shape mismatch");
      return false;
    }
  }
  // Everything validated — commit.
  for (size_t i = 0; i < params.size(); ++i) {
    params[i].mutable_value() = std::move(loaded[i]);
  }
  if (meta != nullptr) *meta = parsed;
  return true;
}

bool ValidateCheckpoint(const std::string& path, CheckpointMeta* meta,
                        uint64_t expected_config_hash, std::string* error) {
  std::vector<tensor::Matrix> discarded;
  return ParseCheckpoint(path, meta, &discarded, expected_config_hash, error);
}

std::string CheckpointPath(const std::string& dir, int epoch) {
  return dir + "/" + kPrefix + std::to_string(epoch) + kSuffix;
}

std::string LatestCheckpoint(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return "";
  int best_epoch = -1;
  size_t prefix_len = std::strlen(kPrefix);
  size_t suffix_len = std::strlen(kSuffix);
  for (struct dirent* entry = ::readdir(d); entry != nullptr;
       entry = ::readdir(d)) {
    std::string name = entry->d_name;
    if (name.size() <= prefix_len + suffix_len) continue;
    if (name.compare(0, prefix_len, kPrefix) != 0) continue;
    if (name.compare(name.size() - suffix_len, suffix_len, kSuffix) != 0) {
      continue;
    }
    std::string digits =
        name.substr(prefix_len, name.size() - prefix_len - suffix_len);
    char* end = nullptr;
    long epoch = std::strtol(digits.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || epoch < 0) continue;
    if (epoch > best_epoch) best_epoch = static_cast<int>(epoch);
  }
  ::closedir(d);
  return best_epoch >= 0 ? CheckpointPath(dir, best_epoch) : "";
}

uint64_t HashFields(const std::vector<int64_t>& fields) {
  uint64_t hash = 1469598103934665603ULL;  // FNV offset basis
  for (int64_t field : fields) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= static_cast<uint64_t>(field >> (byte * 8)) & 0xFFu;
      hash *= 1099511628211ULL;  // FNV prime
    }
  }
  // Never produce the "don't validate" sentinel for a real config.
  return hash == 0 ? 1 : hash;
}

uint64_t HashFields(std::initializer_list<int64_t> fields) {
  return HashFields(std::vector<int64_t>(fields));
}

}  // namespace cpgan::train
