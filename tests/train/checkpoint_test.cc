#include "train/checkpoint.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "train/fault.h"
#include "util/crc32.h"
#include "util/fileio.h"
#include "tests/test_util.h"

namespace cpgan::train {
namespace {

namespace t = cpgan::tensor;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<t::Tensor> MakeParams(uint64_t seed = 5) {
  return {t::Tensor(cpgan::testing::TestMatrix(4, 3, 1.0f, seed), true),
          t::Tensor(cpgan::testing::TestMatrix(2, 6, 2.0f, seed + 1), true),
          t::Tensor(cpgan::testing::TestMatrix(1, 1, 0.5f, seed + 2), true)};
}

void ExpectSameValues(const std::vector<t::Tensor>& a,
                      const std::vector<t::Tensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].value().SameShape(b[i].value())) << "tensor " << i;
    t::Matrix diff = a[i].value();
    diff.Axpy(-1.0f, b[i].value());
    EXPECT_FLOAT_EQ(diff.Norm(), 0.0f) << "tensor " << i;
  }
}

/// Appends the bytes of each field to `bytes`, in host (little-endian) order.
template <typename... Fields>
void Put(std::string& bytes, Fields... fields) {
  (bytes.append(reinterpret_cast<const char*>(&fields), sizeof(fields)), ...);
}

/// A 24-byte checkpoint header (epoch 1, hash 0) with a valid checksum.
std::string Header(uint32_t version = 1) {
  std::string bytes;
  const uint32_t magic = 0x4B435043u;  // "CPCK"
  Put(bytes, magic, version, int32_t{1}, uint64_t{0});
  Put(bytes, util::Crc32Of(bytes.data(), bytes.size()));
  return bytes;
}

bool WriteBytes(const std::string& path, const std::string& bytes) {
  return util::AtomicWriteFile(path, [&bytes](std::FILE* f) {
    return std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  });
}

TEST(CheckpointTest, RoundTripRestoresMetaAndParams) {
  std::string path = TempPath("ckpt_roundtrip.cpck");
  auto params = MakeParams();
  CheckpointMeta meta;
  meta.epoch = 37;
  meta.config_hash = HashFields({1, 2, 3});
  ASSERT_TRUE(SaveCheckpoint(path, meta, params));
  EXPECT_FALSE(util::FileExists(path + ".tmp"));

  auto restored = MakeParams(99);  // same shapes, different values
  CheckpointMeta loaded;
  std::string err;
  ASSERT_TRUE(
      LoadCheckpoint(path, &loaded, restored, meta.config_hash, &err))
      << err;
  EXPECT_EQ(loaded.epoch, 37);
  EXPECT_EQ(loaded.config_hash, meta.config_hash);
  ExpectSameValues(params, restored);
  std::remove(path.c_str());
}

TEST(CheckpointTest, TruncatedFileIsRejectedAndParamsUntouched) {
  std::string path = TempPath("ckpt_trunc.cpck");
  ASSERT_TRUE(SaveCheckpoint(path, CheckpointMeta{10, 1}, MakeParams()));
  int64_t size = FileSize(path);
  ASSERT_GT(size, 0);
  // Cut the file at several depths: mid-header, after the 24-byte header,
  // inside the tensor block's magic, version and count, mid-tensor, before
  // and inside the file checksum.
  for (int64_t keep : {int64_t{6}, int64_t{24}, int64_t{26}, int64_t{30},
                       int64_t{34}, size / 2, size - 4, size - 1}) {
    ASSERT_TRUE(SaveCheckpoint(path, CheckpointMeta{10, 1}, MakeParams()));
    ASSERT_TRUE(TruncateFile(path, keep));
    auto params = MakeParams(42);
    auto before = MakeParams(42);
    std::string err;
    EXPECT_FALSE(LoadCheckpoint(path, nullptr, params, 0, &err))
        << "keep=" << keep;
    EXPECT_FALSE(err.empty());
    ExpectSameValues(before, params);
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, BitFlipAnywhereIsRejected) {
  std::string path = TempPath("ckpt_flip.cpck");
  ASSERT_TRUE(SaveCheckpoint(path, CheckpointMeta{10, 1}, MakeParams()));
  int64_t size = FileSize(path);
  ASSERT_GT(size, 0);
  // Flip one byte in the header, in the tensor block's magic, version and
  // count, in the first tensor's rows, in a tensor payload, and in the file
  // checksum, its last byte included.
  for (int64_t offset : {int64_t{9}, int64_t{25}, int64_t{29}, int64_t{33},
                         int64_t{37}, size / 2, size - 2, size - 1}) {
    ASSERT_TRUE(SaveCheckpoint(path, CheckpointMeta{10, 1}, MakeParams()));
    ASSERT_TRUE(FlipByte(path, offset));
    auto params = MakeParams(42);
    auto before = MakeParams(42);
    std::string err;
    EXPECT_FALSE(LoadCheckpoint(path, nullptr, params, 0, &err))
        << "offset=" << offset;
    EXPECT_FALSE(err.empty());
    ExpectSameValues(before, params);
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, WrongVersionOrForeignBlockIsRejected) {
  // Every checksum the files hold is valid, so the named check itself
  // rejects each: a checkpoint header of version 999; under a valid
  // header, a "CPG2" block of version 7 (count 0), a legacy "CPGN" body
  // (count 1, then a 1x1 tensor holding 1e30, with no checksum), a "CPG2"
  // block whose count, 2^32 - 1, the 36-byte file cannot hold, and one
  // whose first tensor is (2^31 - 1) x (2^31 - 1), a byte count past 2^63.
  std::string version7;
  Put(version7, uint32_t{0x32475043u}, uint32_t{7}, uint32_t{0});
  Put(version7, util::Crc32Of(version7.data(), version7.size()));
  std::string legacy;
  Put(legacy, uint32_t{0x4350474Eu}, uint32_t{1}, int32_t{1}, int32_t{1},
      1e30f);
  std::string huge_count;
  Put(huge_count, uint32_t{0x32475043u}, uint32_t{2}, uint32_t{0xFFFFFFFFu});
  std::string huge_shape;
  Put(huge_shape, uint32_t{0x32475043u}, uint32_t{2}, uint32_t{1},
      int32_t{0x7FFFFFFF}, int32_t{0x7FFFFFFF}, uint32_t{0});
  const std::pair<std::string, const char*> files[] = {
      {Header(999), "version"},
      {Header() + version7, "version"},
      {Header() + legacy, "magic"},
      {Header() + huge_count, "truncated"},
      {Header() + huge_shape, "truncated"}};
  for (const auto& [bytes, reason] : files) {
    std::string path = TempPath("ckpt_foreign.cpck");
    ASSERT_TRUE(WriteBytes(path, bytes));
    // One 1x1 destination, the legacy body's shape.
    std::vector<t::Tensor> params = {t::Tensor(t::Matrix(1, 1, 0.5f), true)};
    CheckpointMeta meta;
    std::string err;
    EXPECT_FALSE(LoadCheckpoint(path, &meta, params, 0, &err)) << reason;
    EXPECT_NE(err.find(reason), std::string::npos) << err;
    EXPECT_EQ(params[0].value().At(0, 0), 0.5f);
    err.clear();
    EXPECT_FALSE(ValidateCheckpoint(path, &meta, 0, &err)) << reason;
    EXPECT_NE(err.find(reason), std::string::npos) << err;
    std::remove(path.c_str());
  }
}

TEST(CheckpointTest, ArchitectureHashMismatchIsRejected) {
  std::string path = TempPath("ckpt_arch.cpck");
  CheckpointMeta meta;
  meta.epoch = 5;
  meta.config_hash = HashFields({7, 7, 7});
  ASSERT_TRUE(SaveCheckpoint(path, meta, MakeParams()));
  auto params = MakeParams();
  std::string err;
  EXPECT_FALSE(
      LoadCheckpoint(path, nullptr, params, HashFields({8, 8, 8}), &err));
  EXPECT_NE(err.find("architecture"), std::string::npos) << err;
  // Hash 0 on either side skips the validation.
  EXPECT_TRUE(LoadCheckpoint(path, nullptr, params, 0, &err)) << err;
  std::remove(path.c_str());
}

TEST(CheckpointTest, ShapeMismatchIsRejectedAndParamsUntouched) {
  std::string path = TempPath("ckpt_shape.cpck");
  ASSERT_TRUE(SaveCheckpoint(path, CheckpointMeta{3, 0}, MakeParams()));
  // The file holds 4x3, 2x6 and 1x1. Destinations: one tensor, one tensor
  // more than the file, and the same count with a 4x4 first tensor.
  auto one_more = MakeParams(7);
  one_more.emplace_back(cpgan::testing::TestMatrix(1, 1, 1.0f, 4), true);
  auto reshaped = MakeParams(7);
  reshaped[0] = t::Tensor(cpgan::testing::TestMatrix(4, 4, 1.0f, 3), true);
  const std::vector<std::vector<t::Tensor>> destinations = {
      {t::Tensor(cpgan::testing::TestMatrix(4, 4, 1.0f, 3), true)}, one_more,
      reshaped};
  for (const std::vector<t::Tensor>& original : destinations) {
    std::vector<t::Tensor> wrong;
    for (const t::Tensor& p : original) wrong.emplace_back(p.value(), true);
    std::string err;
    EXPECT_FALSE(LoadCheckpoint(path, nullptr, wrong, 0, &err))
        << wrong.size() << " tensors";
    EXPECT_NE(err.find("mismatch"), std::string::npos) << err;
    ExpectSameValues(original, wrong);
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileAndUnwritableDirectoryFail) {
  auto params = MakeParams();
  auto before = MakeParams();
  CheckpointMeta meta;
  std::string err;
  const std::string missing = TempPath("ckpt_does_not_exist.cpck");
  EXPECT_FALSE(LoadCheckpoint(missing, &meta, params, 0, &err));
  EXPECT_FALSE(err.empty());
  err.clear();
  EXPECT_FALSE(ValidateCheckpoint(missing, &meta, 0, &err));
  EXPECT_FALSE(err.empty());
  ExpectSameValues(before, params);
  EXPECT_FALSE(SaveCheckpoint("/nonexistent_dir/ckpt_1.cpck",
                              CheckpointMeta{1, 0}, params));
}

TEST(CheckpointTest, ValidateCheckpointVetsWithoutAModel) {
  std::string path = TempPath("ckpt_validate.cpck");
  ASSERT_TRUE(SaveCheckpoint(path, CheckpointMeta{12, 9}, MakeParams()));
  CheckpointMeta meta;
  std::string err;
  ASSERT_TRUE(ValidateCheckpoint(path, &meta, 0, &err)) << err;
  EXPECT_EQ(meta.epoch, 12);
  ASSERT_TRUE(FlipByte(path, FileSize(path) / 2));
  EXPECT_FALSE(ValidateCheckpoint(path, &meta, 0, &err));
  EXPECT_FALSE(err.empty());
  std::remove(path.c_str());
}

TEST(CheckpointTest, LatestCheckpointPicksHighestEpoch) {
  std::string dir = TempPath("ckpt_scan");
  ASSERT_TRUE(util::MakeDirs(dir));
  // TempDir is shared across runs: clear leftovers from a prior invocation.
  for (int epoch : {5, 10, 20}) std::remove(CheckpointPath(dir, epoch).c_str());
  std::remove((dir + "/notes.txt").c_str());
  EXPECT_EQ(LatestCheckpoint(dir), "");
  auto params = MakeParams();
  for (int epoch : {10, 5, 20}) {
    ASSERT_TRUE(SaveCheckpoint(CheckpointPath(dir, epoch),
                               CheckpointMeta{epoch, 0}, params));
  }
  // A stray non-checkpoint file must not confuse the scan.
  std::FILE* stray = std::fopen((dir + "/notes.txt").c_str(), "w");
  ASSERT_NE(stray, nullptr);
  std::fclose(stray);
  EXPECT_EQ(LatestCheckpoint(dir), CheckpointPath(dir, 20));
  EXPECT_EQ(LatestCheckpoint(dir + "/missing"), "");
}

TEST(CheckpointTest, HashFieldsIsOrderSensitiveAndNeverZero) {
  EXPECT_NE(HashFields({1, 2}), HashFields({2, 1}));
  EXPECT_NE(HashFields({1, 2}), HashFields({1, 2, 0}));
  EXPECT_NE(HashFields({}), 0u);
  EXPECT_EQ(HashFields({5, 6}), HashFields({5, 6}));
}

}  // namespace
}  // namespace cpgan::train
