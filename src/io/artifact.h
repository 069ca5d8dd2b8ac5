#ifndef DTT_IO_ARTIFACT_H_
#define DTT_IO_ARTIFACT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "io/mmap_file.h"
#include "util/status.h"

namespace dtt {
namespace io {

/// The DTTART1 aligned binary model-artifact format.
///
/// Layout (little-endian, the only byte order DTT targets):
///
///   [header, 40 bytes]
///     0  magic            "DTTART1\0" (8 bytes)
///     8  u32 version      (kArtifactVersion)
///    12  u32 tensor_count
///    16  u64 index_bytes  (size of the index section)
///    24  u64 index_checksum    FNV-1a 64 over the index section
///    32  u64 payload_checksum  FNV-1a 64 over [payload_start, end of file)
///   [index section, index_bytes bytes — one record per tensor]
///     u32 name_len, name bytes
///     u32 dtype (0 = f32)
///     u32 rank, u32 dims[rank]
///     u64 payload_offset  (absolute file offset, 64-byte aligned)
///     u64 payload_bytes
///   [payload section]
///     each tensor's raw element bytes at its 64-byte-aligned offset,
///     zero padding in the gaps
///
/// Contracts:
///   * every payload_offset is kPayloadAlign-aligned, so an mmap'd payload
///     pointer (page-aligned base) is kPayloadAlign-aligned in memory —
///     safe to reinterpret as const float* and friendly to vector kernels;
///   * index_checksum is verified on every Open (the index is tiny and a
///     corrupt index is how every parsing disaster starts);
///   * payload_checksum is verified when
///     ArtifactOpenOptions::verify_payload_checksum is set — the default.
///     Serving paths that want lazy page-in (verification touches every
///     page) opt out explicitly and say so (docs/artifacts.md).
constexpr char kArtifactMagic[8] = {'D', 'T', 'T', 'A', 'R', 'T', '1', '\0'};
constexpr uint32_t kArtifactVersion = 1;
constexpr size_t kArtifactHeaderBytes = 40;
constexpr size_t kPayloadAlign = 64;

/// Element type of an artifact tensor. Only f32 exists today; the field is
/// in the format so quantized payloads can land without a version bump.
enum class ArtifactDtype : uint32_t { kF32 = 0 };

/// FNV-1a 64-bit over `view` (the artifact checksum function).
uint64_t Fnv1a64(View view);

/// One tensor of an opened artifact: metadata plus a typed pointer directly
/// into the underlying map. Valid only while the owning ArtifactFile lives.
struct ArtifactTensor {
  std::string name;
  std::vector<int> shape;
  ArtifactDtype dtype = ArtifactDtype::kF32;
  const float* data = nullptr;
  size_t size = 0;  // element count
};

struct ArtifactOpenOptions {
  /// Verify the payload checksum at open (reads every payload byte). Off =
  /// open is O(index) and pages fault in on first use.
  bool verify_payload_checksum = true;
};

/// An opened, validated DTTART1 file: the mmap plus the parsed tensor
/// table. shared_ptr-held because borrowed weight tensors
/// (nn::Tensor::Borrowed) point into the map — whoever holds such tensors
/// must hold the ArtifactFile too (io/model_artifact.h ties the two
/// together).
class ArtifactFile {
 public:
  /// Maps and validates `path`: magic, version, index bounds + checksum,
  /// per-tensor alignment and in-file bounds, payload checksum per
  /// `options`. Malformed input is typed (InvalidArgument / IOError), never
  /// UB.
  static Result<std::shared_ptr<ArtifactFile>> Open(
      const std::string& path, ArtifactOpenOptions options = {});

  const std::vector<ArtifactTensor>& tensors() const { return tensors_; }

  /// The tensor named `name`, or nullptr.
  const ArtifactTensor* Find(std::string_view name) const;

  size_t file_bytes() const { return file_.size(); }
  uint64_t payload_checksum() const { return payload_checksum_; }

 private:
  ArtifactFile() = default;

  MmapFile file_;
  std::vector<ArtifactTensor> tensors_;
  std::unordered_map<std::string, size_t> by_name_;
  uint64_t payload_checksum_ = 0;
};

/// Accumulates named tensors and writes them as one DTTART1 file. Add'ed
/// data pointers must stay valid until Write returns.
class ArtifactWriter {
 public:
  /// `data` is `size` row-major floats matching `shape`'s element count.
  void Add(std::string name, std::vector<int> shape, const float* data,
           size_t size);

  /// Writes the artifact; computes offsets, padding, and both checksums.
  /// Duplicate names are InvalidArgument. The file is written beside
  /// `path` and renamed over it, so a model bound to the previous file
  /// (LoadArtifact) keeps its weights and a failed write leaves `path`
  /// untouched.
  Status Write(const std::string& path) const;

 private:
  struct Pending {
    std::string name;
    std::vector<int> shape;
    const float* data;
    size_t size;
  };
  std::vector<Pending> tensors_;
};

}  // namespace io
}  // namespace dtt

#endif  // DTT_IO_ARTIFACT_H_
