#include "io/artifact.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/mmap_file.h"
#include "io/model_artifact.h"
#include "nn/autograd.h"
#include "nn/transformer.h"
#include "testing/matchers.h"
#include "testing/temp_dir.h"
#include "util/rng.h"

namespace dtt {
namespace io {
namespace {

using ::dtt::testing::TempDirTest;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class MmapFileTest : public TempDirTest {};

TEST_F(MmapFileTest, MapsFileContents) {
  const std::string path = TempFile("data.bin");
  WriteFileBytes(path, "hello mmap");
  auto mapped = MmapFile::Open(path);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(mapped.value().size(), 10u);
  EXPECT_EQ(std::string(mapped.value().data(), mapped.value().size()),
            "hello mmap");
}

TEST_F(MmapFileTest, EmptyFileIsValidZeroSizeMap) {
  const std::string path = TempFile("empty.bin");
  WriteFileBytes(path, "");
  auto mapped = MmapFile::Open(path);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(mapped.value().size(), 0u);
}

TEST_F(MmapFileTest, MissingFileFailsTyped) {
  auto mapped = MmapFile::Open(TempFile("missing.bin"));
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kIOError);
}

TEST_F(MmapFileTest, MoveTransfersOwnership) {
  const std::string path = TempFile("data.bin");
  WriteFileBytes(path, "abc");
  auto mapped = MmapFile::Open(path);
  ASSERT_TRUE(mapped.ok());
  MmapFile moved = std::move(mapped.value());
  EXPECT_EQ(moved.size(), 3u);
  EXPECT_TRUE(moved.valid());
}

class ArtifactTest : public TempDirTest {
 protected:
  /// A small deterministic tensor set with a scalar-free mix of ranks.
  struct Corpus {
    std::vector<std::string> names = {"embed.w", "layer0.attn.wq", "out.b"};
    std::vector<std::vector<int>> shapes = {{3, 4}, {4, 4}, {5}};
    std::vector<std::vector<float>> data;

    Corpus() {
      for (const auto& shape : shapes) {
        size_t n = 1;
        for (int d : shape) n *= static_cast<size_t>(d);
        std::vector<float> values(n);
        for (size_t i = 0; i < n; ++i) {
          values[i] = 0.125f * static_cast<float>(i) - 2.0f;
        }
        data.push_back(std::move(values));
      }
    }
  };

  std::string WriteCorpus(const std::string& name) {
    const std::string path = TempFile(name);
    ArtifactWriter writer;
    for (size_t i = 0; i < corpus_.names.size(); ++i) {
      writer.Add(corpus_.names[i], corpus_.shapes[i], corpus_.data[i].data(),
                 corpus_.data[i].size());
    }
    EXPECT_TRUE(writer.Write(path).ok());
    return path;
  }

  Corpus corpus_;
};

TEST_F(ArtifactTest, WriteOpenRoundTripsBitExact) {
  const std::string path = WriteCorpus("model.dttart");
  auto opened = ArtifactFile::Open(path);
  ASSERT_TRUE(opened.ok());
  const auto& artifact = *opened.value();
  ASSERT_EQ(artifact.tensors().size(), corpus_.names.size());
  for (size_t i = 0; i < corpus_.names.size(); ++i) {
    const ArtifactTensor* t = artifact.Find(corpus_.names[i]);
    ASSERT_NE(t, nullptr) << corpus_.names[i];
    EXPECT_EQ(t->shape, corpus_.shapes[i]);
    EXPECT_EQ(t->dtype, ArtifactDtype::kF32);
    ASSERT_EQ(t->size, corpus_.data[i].size());
    EXPECT_EQ(std::memcmp(t->data, corpus_.data[i].data(),
                          t->size * sizeof(float)),
              0);
  }
}

TEST_F(ArtifactTest, PayloadsAre64ByteAligned) {
  const std::string path = WriteCorpus("model.dttart");
  auto opened = ArtifactFile::Open(path);
  ASSERT_TRUE(opened.ok());
  for (const auto& t : opened.value()->tensors()) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(t.data) % kPayloadAlign, 0u)
        << t.name;
  }
}

TEST_F(ArtifactTest, EmptyArtifactRoundTrips) {
  const std::string path = TempFile("empty.dttart");
  ASSERT_TRUE(ArtifactWriter().Write(path).ok());
  auto opened = ArtifactFile::Open(path);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened.value()->tensors().empty());
}

TEST_F(ArtifactTest, FindUnknownNameReturnsNull) {
  auto opened = ArtifactFile::Open(WriteCorpus("model.dttart"));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value()->Find("no.such.tensor"), nullptr);
}

TEST_F(ArtifactTest, WriterRejectsDuplicateNames) {
  ArtifactWriter writer;
  const std::vector<float> values = {1, 2};
  writer.Add("dup", {2}, values.data(), values.size());
  writer.Add("dup", {2}, values.data(), values.size());
  EXPECT_EQ(writer.Write(TempFile("dup.dttart")).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ArtifactTest, WriterRejectsSizeShapeMismatch) {
  ArtifactWriter writer;
  const std::vector<float> values = {1, 2, 3};
  writer.Add("bad", {2, 2}, values.data(), values.size());
  EXPECT_EQ(writer.Write(TempFile("bad.dttart")).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ArtifactTest, OpenRejectsBadMagic) {
  const std::string path = TempFile("bad.dttart");
  WriteFileBytes(path, std::string(64, 'x'));
  EXPECT_EQ(ArtifactFile::Open(path).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ArtifactTest, CorpusEveryTruncationFailsCleanly) {
  const std::string path = WriteCorpus("model.dttart");
  const std::string bytes = ReadFileBytes(path);
  const std::string mutated = TempFile("mutated.dttart");
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFileBytes(mutated, bytes.substr(0, len));
    EXPECT_FALSE(ArtifactFile::Open(mutated).ok())
        << "truncation to " << len << " bytes opened";
  }
}

TEST_F(ArtifactTest, CorpusEveryBitFlipDetectedOrHarmless) {
  const std::string path = WriteCorpus("model.dttart");
  const std::string bytes = ReadFileBytes(path);
  const std::string mutated = TempFile("mutated.dttart");
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << bit));
      WriteFileBytes(mutated, flipped);
      auto opened = ArtifactFile::Open(mutated);
      if (!opened.ok()) continue;  // detected — the expected outcome
      // The only undetectable flips live in the zero padding between the
      // index and the aligned payload start (covered by neither checksum);
      // those must leave every tensor bit-identical.
      const auto& artifact = *opened.value();
      ASSERT_EQ(artifact.tensors().size(), corpus_.names.size());
      for (size_t i = 0; i < corpus_.names.size(); ++i) {
        const ArtifactTensor* t = artifact.Find(corpus_.names[i]);
        ASSERT_NE(t, nullptr);
        EXPECT_EQ(std::memcmp(t->data, corpus_.data[i].data(),
                              t->size * sizeof(float)),
                  0)
            << "bit flip at byte " << pos << " bit " << bit
            << " silently altered " << corpus_.names[i];
      }
    }
  }
}

TEST_F(ArtifactTest, PayloadFlipUndetectedWhenVerificationIsOff) {
  // The serving path opts out of the eager payload checksum to keep mmap
  // loads lazy; structural (index) corruption must still be caught.
  const std::string path = WriteCorpus("model.dttart");
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 1);
  const std::string mutated = TempFile("mutated.dttart");
  WriteFileBytes(mutated, bytes);
  EXPECT_FALSE(ArtifactFile::Open(mutated).ok());
  EXPECT_TRUE(
      ArtifactFile::Open(mutated, {.verify_payload_checksum = false}).ok());
}

class ModelArtifactTest : public TempDirTest {
 protected:
  static nn::TransformerConfig TinyConfig() {
    nn::TransformerConfig cfg;
    cfg.dim = 16;
    cfg.num_heads = 2;
    cfg.ff_hidden = 24;
    cfg.encoder_layers = 1;
    cfg.decoder_layers = 1;
    cfg.max_len = 32;
    return cfg;
  }
};

TEST_F(ModelArtifactTest, SavedArtifactBindsBitIdenticalToSourceModel) {
  const std::string art = TempFile("model.dttart");
  Rng rng(7);
  nn::Transformer saved(TinyConfig(), &rng);
  ASSERT_TRUE(SaveArtifact(art, saved.Params()).ok());

  // The heap oracle: the saved model's own parameters.
  auto heap_params = saved.Params();

  // The mmap path: LoadArtifact.
  auto loaded = LoadArtifact(art, TinyConfig());
  ASSERT_TRUE(loaded.ok());
  auto mmap_params = loaded.value().model->Params();

  ASSERT_EQ(mmap_params.size(), heap_params.size());
  for (size_t i = 0; i < heap_params.size(); ++i) {
    EXPECT_EQ(mmap_params[i].name, heap_params[i].name);
    EXPECT_TRUE(mmap_params[i].var.value().borrowed());
    const nn::Tensor& a = mmap_params[i].var.value();
    const nn::Tensor& b = heap_params[i].var.value();
    ASSERT_EQ(a.shape(), b.shape());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << mmap_params[i].name;
  }
}

TEST_F(ModelArtifactTest, ArtifactModelDecodesIdenticallyToHeapModel) {
  const std::string art = TempFile("model.dttart");
  Rng rng(13);
  nn::Transformer heap_model(TinyConfig(), &rng);
  ASSERT_TRUE(SaveArtifact(art, heap_model.Params()).ok());

  auto loaded = LoadArtifact(art, TinyConfig());
  ASSERT_TRUE(loaded.ok());

  // Same batched forward (encoder + greedy decode) through both storage
  // modes: the round trip must be bit-exact.
  const std::vector<std::vector<int>> inputs = {{5, 6, 7, 8}, {9, 10, 11}};
  const auto heap_out = heap_model.GenerateBatch(inputs, /*max_steps=*/8);
  const auto mmap_out =
      loaded.value().model->GenerateBatch(inputs, /*max_steps=*/8);
  EXPECT_EQ(heap_out, mmap_out);
}

TEST_F(ModelArtifactTest, SaveArtifactDirectRoundTrip) {
  const std::string art = TempFile("model.dttart");
  Rng rng(3);
  nn::Transformer model(TinyConfig(), &rng);
  ASSERT_TRUE(SaveArtifact(art, model.Params()).ok());
  auto loaded = LoadArtifact(art, TinyConfig());
  ASSERT_TRUE(loaded.ok());
  auto saved_params = model.Params();
  auto loaded_params = loaded.value().model->Params();
  ASSERT_EQ(loaded_params.size(), saved_params.size());
  for (size_t i = 0; i < saved_params.size(); ++i) {
    EXPECT_TENSOR_EQ(loaded_params[i].var.value(),
                     saved_params[i].var.value());
  }
}

TEST_F(ModelArtifactTest, BindRejectsWrongShapeWithoutPartialBind) {
  const std::string art = TempFile("model.dttart");
  Rng rng(3);
  nn::Transformer model(TinyConfig(), &rng);
  ASSERT_TRUE(SaveArtifact(art, model.Params()).ok());

  // A model with a different width: every shape disagrees. Bind must fail
  // and leave all parameters owned (untouched).
  nn::TransformerConfig wide = TinyConfig();
  wide.dim = 32;
  wide.ff_hidden = 48;
  EXPECT_FALSE(LoadArtifact(art, wide).ok());
}

TEST_F(ModelArtifactTest, LoadArtifactRejectsMissingFile) {
  EXPECT_FALSE(LoadArtifact(TempFile("missing.dttart"), TinyConfig()).ok());
}

// Saving over a path that a live model is bound to must not change that
// model's weights: the save replaces the file, it never rewrites the pages
// the old mapping still reads.
TEST_F(ModelArtifactTest, OverwritingPathLeavesLoadedModelUnchanged) {
  const std::string art = TempFile("model.dttart");
  Rng rng(3);
  nn::Transformer first(TinyConfig(), &rng);
  ASSERT_TRUE(SaveArtifact(art, first.Params()).ok());
  auto loaded = LoadArtifact(art, TinyConfig());
  ASSERT_TRUE(loaded.ok());

  Rng other_rng(4);
  nn::Transformer second(TinyConfig(), &other_rng);
  ASSERT_TRUE(SaveArtifact(art, second.Params()).ok());

  const auto expected = first.Params();
  const auto live = loaded.value().model->Params();
  ASSERT_EQ(live.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TENSOR_EQ(live[i].var.value(), expected[i].var.value());
  }
  // The replacement is what the next load sees.
  auto reloaded = LoadArtifact(art, TinyConfig());
  ASSERT_TRUE(reloaded.ok());
  const auto replaced = second.Params();
  const auto fresh = reloaded.value().model->Params();
  for (size_t i = 0; i < replaced.size(); ++i) {
    EXPECT_TENSOR_EQ(fresh[i].var.value(), replaced[i].var.value());
  }
}

// Checkpoints: the trainable weights training saves with SaveArtifact and
// reads back as owned, writable tensors with LoadArtifactParams.
class CheckpointTest : public TempDirTest {
 protected:
  static nn::NamedParam MakeParam(const std::string& name, nn::Tensor value) {
    return {name, nn::Var::Leaf(std::move(value), /*requires_grad=*/true)};
  }

  static std::vector<nn::NamedParam> SmallParams() {
    std::vector<nn::NamedParam> params;
    params.push_back(MakeParam(
        "embed.w", nn::Tensor::FromMatrix(
                       2, 3, {0.5f, -1.25f, 3e-8f, -0.0f, 42.0f, 7.5f})));
    params.push_back(MakeParam(
        "out.b", nn::Tensor::FromVector(
                     {std::numeric_limits<float>::min(), -2.5f, 1e20f})));
    return params;
  }

  /// Structurally identical params with different contents, for load
  /// targets.
  static std::vector<nn::NamedParam> SmallParamsOtherValues() {
    std::vector<nn::NamedParam> params;
    params.push_back(MakeParam("embed.w", nn::Tensor::Full({2, 3}, 9.0f)));
    params.push_back(MakeParam("out.b", nn::Tensor::Full({3}, -9.0f)));
    return params;
  }

  static bool BitIdentical(const nn::Tensor& a, const nn::Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
  }

  /// Loads `path` into `dest` and expects a typed `code` failure that
  /// leaves every destination bit unchanged.
  static void ExpectRejectedUntouched(const std::string& path,
                                      std::vector<nn::NamedParam> dest,
                                      StatusCode code) {
    std::vector<nn::Tensor> before;
    for (const auto& p : dest) before.push_back(p.var.value());
    EXPECT_EQ(LoadArtifactParams(path, &dest).code(), code);
    for (size_t i = 0; i < dest.size(); ++i) {
      EXPECT_TRUE(BitIdentical(dest[i].var.value(), before[i]))
          << "failed load mutated parameter " << dest[i].name;
    }
  }

  /// Corpus check: loading a corrupted variant must either fail typed and
  /// leave the destination untouched, or load exactly SmallParams() —
  /// never crash, never commit a partial or altered load.
  static void ExpectAllOrNothing(const std::string& path,
                                 const std::string& what) {
    auto dest = SmallParamsOtherValues();
    const auto before = SmallParamsOtherValues();
    const auto saved = SmallParams();
    const Status status = LoadArtifactParams(path, &dest);
    const auto& expected = status.ok() ? saved : before;
    if (!status.ok()) {
      EXPECT_TRUE(status.code() == StatusCode::kInvalidArgument ||
                  status.code() == StatusCode::kIOError)
          << what << ": " << status.ToString();
    }
    for (size_t i = 0; i < dest.size(); ++i) {
      EXPECT_TRUE(
          BitIdentical(dest[i].var.value(), expected[i].var.value()))
          << what << (status.ok() ? " loaded altered " : " mutated ")
          << dest[i].name;
    }
  }
};

TEST_F(CheckpointTest, SaveLoadRestoresExactValues) {
  const std::string path = TempFile("ckpt.dttart");
  auto saved = SmallParams();
  ASSERT_TRUE(SaveArtifact(path, saved).ok());

  auto loaded = SmallParamsOtherValues();
  ASSERT_TRUE(LoadArtifactParams(path, &loaded).ok());
  for (size_t i = 0; i < saved.size(); ++i) {
    EXPECT_FALSE(loaded[i].var.value().borrowed());
    EXPECT_TRUE(BitIdentical(loaded[i].var.value(), saved[i].var.value()))
        << saved[i].name;
  }
}

TEST_F(CheckpointTest, LoadMatchesByNameNotOrder) {
  const std::string path = TempFile("ckpt.dttart");
  auto saved = SmallParams();
  ASSERT_TRUE(SaveArtifact(path, saved).ok());

  // Destination lists the same parameters in reverse order.
  auto loaded = SmallParamsOtherValues();
  std::swap(loaded[0], loaded[1]);
  ASSERT_TRUE(LoadArtifactParams(path, &loaded).ok());
  EXPECT_EQ(loaded[0].name, "out.b");
  EXPECT_TENSOR_EQ(loaded[0].var.value(), saved[1].var.value());
  EXPECT_TENSOR_EQ(loaded[1].var.value(), saved[0].var.value());
}

TEST_F(CheckpointTest, SaveLoadEmptyParamList) {
  const std::string path = TempFile("empty.dttart");
  std::vector<nn::NamedParam> none;
  ASSERT_TRUE(SaveArtifact(path, none).ok());
  EXPECT_TRUE(LoadArtifactParams(path, &none).ok());
}

TEST_F(CheckpointTest, LoadRejectsShapeMismatch) {
  const std::string path = TempFile("ckpt.dttart");
  ASSERT_TRUE(SaveArtifact(path, SmallParams()).ok());

  std::vector<nn::NamedParam> wrong;
  wrong.push_back(MakeParam("embed.w", nn::Tensor::Full({3, 2}, 9.0f)));
  wrong.push_back(MakeParam("out.b", nn::Tensor::Full({3}, -9.0f)));
  ExpectRejectedUntouched(path, std::move(wrong),
                          StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, LoadRejectsUnknownName) {
  const std::string path = TempFile("ckpt.dttart");
  ASSERT_TRUE(SaveArtifact(path, SmallParams()).ok());

  std::vector<nn::NamedParam> wrong;
  wrong.push_back(MakeParam("embed.w", nn::Tensor::Full({2, 3}, 9.0f)));
  wrong.push_back(MakeParam("renamed.b", nn::Tensor::Full({3}, -9.0f)));
  ExpectRejectedUntouched(path, std::move(wrong),
                          StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, LoadRejectsParamCountMismatch) {
  const std::string path = TempFile("ckpt.dttart");
  ASSERT_TRUE(SaveArtifact(path, SmallParams()).ok());

  std::vector<nn::NamedParam> fewer;
  fewer.push_back(MakeParam("embed.w", nn::Tensor::Full({2, 3}, 9.0f)));
  ExpectRejectedUntouched(path, std::move(fewer),
                          StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, LoadRejectsBadMagic) {
  const std::string path = TempFile("bad_magic.dttart");
  WriteFileBytes(path, std::string(64, 'x'));
  ExpectRejectedUntouched(path, SmallParamsOtherValues(),
                          StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, LoadRejectsTruncatedFile) {
  const std::string full_path = TempFile("full.dttart");
  ASSERT_TRUE(SaveArtifact(full_path, SmallParams()).ok());
  const std::string bytes = ReadFileBytes(full_path);
  ASSERT_GT(bytes.size(), 16u);

  // Cut inside the float payload of the last parameter.
  const std::string trunc_path = TempFile("trunc.dttart");
  WriteFileBytes(trunc_path, bytes.substr(0, bytes.size() - 5));
  ExpectRejectedUntouched(trunc_path, SmallParamsOtherValues(),
                          StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, LoadMissingFileFails) {
  ExpectRejectedUntouched(TempFile("does_not_exist.dttart"),
                          SmallParamsOtherValues(), StatusCode::kIOError);
}

TEST_F(CheckpointTest, SaveToUnwritablePathFails) {
  EXPECT_EQ(SaveArtifact(TempFile("no_such_dir/ckpt.dttart"), SmallParams())
                .code(),
            StatusCode::kIOError);
}

TEST_F(CheckpointTest, TypedErrors) {
  auto params = SmallParams();
  EXPECT_EQ(LoadArtifactParams(TempFile("missing.dttart"), &params).code(),
            StatusCode::kIOError);

  const std::string header_only = TempFile("header_only.dttart");
  WriteFileBytes(header_only, std::string(kArtifactMagic, 8));
  EXPECT_EQ(LoadArtifactParams(header_only, &params).code(),
            StatusCode::kInvalidArgument);

  // A payload bit flip passes every structural check; the checksum that
  // LoadArtifactParams always verifies reports it as IOError.
  const std::string path = TempFile("ckpt.dttart");
  ASSERT_TRUE(SaveArtifact(path, SmallParams()).ok());
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 1);
  const std::string flipped = TempFile("flipped.dttart");
  WriteFileBytes(flipped, bytes);
  EXPECT_EQ(LoadArtifactParams(flipped, &params).code(), StatusCode::kIOError);
}

TEST_F(CheckpointTest, LoadIntoBorrowedParamsRebindsOwnedStorage) {
  const std::string path = TempFile("ckpt.dttart");
  auto saved = SmallParams();
  ASSERT_TRUE(SaveArtifact(path, saved).ok());

  // Destination params hold artifact-style borrowed views; loading must
  // replace them with owned storage instead of writing through the view.
  std::vector<float> embed_store(6, 9.0f);
  std::vector<float> bias_store(3, -9.0f);
  std::vector<nn::NamedParam> dest;
  dest.push_back(MakeParam("embed.w",
                           nn::Tensor::Borrowed({2, 3}, embed_store.data(),
                                                embed_store.size())));
  dest.push_back(MakeParam(
      "out.b",
      nn::Tensor::Borrowed({3}, bias_store.data(), bias_store.size())));
  ASSERT_TRUE(LoadArtifactParams(path, &dest).ok());
  for (size_t i = 0; i < saved.size(); ++i) {
    EXPECT_FALSE(dest[i].var.value().borrowed());
    EXPECT_TENSOR_EQ(dest[i].var.value(), saved[i].var.value());
  }
  // The original storage was never written through.
  EXPECT_EQ(embed_store, std::vector<float>(6, 9.0f));
  EXPECT_EQ(bias_store, std::vector<float>(3, -9.0f));
}

TEST_F(CheckpointTest, CorpusEveryTruncationFailsCleanly) {
  const std::string path = TempFile("ckpt.dttart");
  ASSERT_TRUE(SaveArtifact(path, SmallParams()).ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 0u);

  const std::string mutated = TempFile("mutated.dttart");
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFileBytes(mutated, bytes.substr(0, len));
    auto dest = SmallParamsOtherValues();
    EXPECT_FALSE(LoadArtifactParams(mutated, &dest).ok())
        << "truncation to " << len << " bytes loaded";
    ExpectAllOrNothing(mutated, "truncation to " + std::to_string(len));
  }
}

TEST_F(CheckpointTest, CorpusEveryBitFlipIsAllOrNothing) {
  const std::string path = TempFile("ckpt.dttart");
  ASSERT_TRUE(SaveArtifact(path, SmallParams()).ok());
  const std::string bytes = ReadFileBytes(path);

  const std::string mutated = TempFile("mutated.dttart");
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << bit));
      WriteFileBytes(mutated, flipped);
      ExpectAllOrNothing(mutated, "bit flip at byte " + std::to_string(pos) +
                                      " bit " + std::to_string(bit));
    }
  }
}

}  // namespace
}  // namespace io
}  // namespace dtt
