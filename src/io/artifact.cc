#include "io/artifact.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <initializer_list>

namespace dtt {
namespace io {

namespace {

// Structural sanity bounds: a valid artifact is nowhere near these, a
// corrupt length field routinely is.
constexpr uint32_t kMaxTensors = 1u << 20;
constexpr uint32_t kMaxNameLen = 1u << 12;
constexpr uint32_t kMaxRank = 8;
constexpr uint32_t kMaxDim = 1u << 28;

size_t AlignUp(size_t n, size_t align) {
  return (n + align - 1) / align * align;
}

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Bounds-checked cursor over one section of the mapped file.
class ViewReader {
 public:
  explicit ViewReader(View view) : view_(view) {}

  size_t remaining() const { return view_.size - pos_; }

  bool ReadU32(uint32_t* v) { return ReadInto(v, sizeof(*v)); }
  bool ReadU64(uint64_t* v) { return ReadInto(v, sizeof(*v)); }

  bool ReadString(std::string* out, size_t n) {
    if (remaining() < n) return false;
    out->assign(view_.data + pos_, n);
    pos_ += n;
    return true;
  }

 private:
  bool ReadInto(void* out, size_t n) {
    if (remaining() < n) return false;
    std::memcpy(out, view_.data + pos_, n);
    pos_ += n;
    return true;
  }

  View view_;
  size_t pos_ = 0;
};

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("malformed DTTART1 artifact: " + what);
}

bool WriteAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

/// Writes `parts` to a sibling of `path` and renames it over `path`. The
/// old file is never rewritten in place, so a model still bound to its
/// mapping keeps its weights, and a failed write leaves `path` as it was;
/// the sibling is removed on any failure. The sibling's name carries the
/// pid and a per-process counter, so no two live writers share one.
Status ReplaceFile(const std::string& path,
                   std::initializer_list<std::string_view> parts) {
  static std::atomic<uint64_t> next_id{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(next_id.fetch_add(1));
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) {
    return Status::IOError("cannot open for write: " + path + ": " +
                           std::strerror(errno));
  }
  bool ok = true;
  for (std::string_view part : parts) ok = ok && WriteAll(fd, part);
  int err = ok ? 0 : errno;
  if (::close(fd) != 0 && ok) {
    ok = false;
    err = errno;
  }
  if (ok && std::rename(tmp.c_str(), path.c_str()) != 0) {
    ok = false;
    err = errno;
  }
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IOError("write failed: " + path + ": " +
                           std::strerror(err));
  }
  return Status::OK();
}

}  // namespace

uint64_t Fnv1a64(View view) {
  uint64_t hash = 14695981039346656037ull;
  for (size_t i = 0; i < view.size; ++i) {
    hash ^= static_cast<uint8_t>(view.data[i]);
    hash *= 1099511628211ull;
  }
  return hash;
}

const ArtifactTensor* ArtifactFile::Find(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? nullptr : &tensors_[it->second];
}

Result<std::shared_ptr<ArtifactFile>> ArtifactFile::Open(
    const std::string& path, ArtifactOpenOptions options) {
  DTT_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(path));
  const char* base = file.data();
  const size_t file_size = file.size();
  if (file_size < kArtifactHeaderBytes) {
    return Malformed("file smaller than header (" + path + ")");
  }
  if (std::memcmp(base, kArtifactMagic, sizeof(kArtifactMagic)) != 0) {
    return Malformed("bad magic (" + path + ")");
  }
  uint32_t version = 0;
  uint32_t count = 0;
  uint64_t index_bytes = 0;
  uint64_t index_checksum = 0;
  uint64_t payload_checksum = 0;
  std::memcpy(&version, base + 8, sizeof(version));
  std::memcpy(&count, base + 12, sizeof(count));
  std::memcpy(&index_bytes, base + 16, sizeof(index_bytes));
  std::memcpy(&index_checksum, base + 24, sizeof(index_checksum));
  std::memcpy(&payload_checksum, base + 32, sizeof(payload_checksum));
  if (version != kArtifactVersion) {
    return Malformed("unsupported version " + std::to_string(version));
  }
  if (count > kMaxTensors) {
    return Malformed("implausible tensor count " + std::to_string(count));
  }
  if (index_bytes > file_size - kArtifactHeaderBytes) {
    return Malformed("index overruns file");
  }

  const View index_view{base + kArtifactHeaderBytes,
                        static_cast<size_t>(index_bytes)};
  if (Fnv1a64(index_view) != index_checksum) {
    return Malformed("index checksum mismatch (corrupt or truncated file)");
  }

  auto artifact = std::shared_ptr<ArtifactFile>(new ArtifactFile());
  artifact->payload_checksum_ = payload_checksum;
  artifact->tensors_.reserve(count);

  ViewReader reader(index_view);
  const size_t payload_start = std::min(
      file_size,
      AlignUp(kArtifactHeaderBytes + static_cast<size_t>(index_bytes),
              kPayloadAlign));
  for (uint32_t i = 0; i < count; ++i) {
    ArtifactTensor t;
    uint32_t name_len = 0;
    if (!reader.ReadU32(&name_len) || name_len > kMaxNameLen ||
        !reader.ReadString(&t.name, name_len)) {
      return Malformed("tensor name (record " + std::to_string(i) + ")");
    }
    uint32_t dtype = 0;
    if (!reader.ReadU32(&dtype) ||
        dtype != static_cast<uint32_t>(ArtifactDtype::kF32)) {
      return Malformed("unsupported dtype for " + t.name);
    }
    t.dtype = static_cast<ArtifactDtype>(dtype);
    uint32_t rank = 0;
    if (!reader.ReadU32(&rank) || rank > kMaxRank) {
      return Malformed("tensor rank for " + t.name);
    }
    t.shape.resize(rank);
    uint64_t numel = rank == 0 ? 0 : 1;
    for (auto& d : t.shape) {
      uint32_t v = 0;
      if (!reader.ReadU32(&v) || v > kMaxDim) {
        return Malformed("tensor dimension for " + t.name);
      }
      d = static_cast<int>(v);
      numel *= v;
    }
    uint64_t offset = 0;
    uint64_t nbytes = 0;
    if (!reader.ReadU64(&offset) || !reader.ReadU64(&nbytes)) {
      return Malformed("payload record for " + t.name);
    }
    if (nbytes != numel * sizeof(float)) {
      return Malformed("payload size disagrees with shape for " + t.name);
    }
    if (offset % kPayloadAlign != 0) {
      return Malformed("unaligned payload offset for " + t.name);
    }
    if (offset < payload_start || offset > file_size ||
        nbytes > file_size - offset) {
      return Malformed("payload out of bounds for " + t.name);
    }
    t.data = numel == 0
                 ? nullptr
                 : reinterpret_cast<const float*>(base + offset);
    t.size = static_cast<size_t>(numel);
    if (!artifact->by_name_
             .emplace(t.name, artifact->tensors_.size())
             .second) {
      return Malformed("duplicate tensor name " + t.name);
    }
    artifact->tensors_.push_back(std::move(t));
  }
  if (reader.remaining() != 0) {
    return Malformed("trailing bytes in index");
  }

  if (options.verify_payload_checksum) {
    const View payload_view{base + payload_start, file_size - payload_start};
    if (Fnv1a64(payload_view) != payload_checksum) {
      return Status::IOError("DTTART1 payload checksum mismatch in " + path +
                             " (corrupt or truncated file)");
    }
  }

  artifact->file_ = std::move(file);
  return artifact;
}

void ArtifactWriter::Add(std::string name, std::vector<int> shape,
                         const float* data, size_t size) {
  tensors_.push_back({std::move(name), std::move(shape), data, size});
}

Status ArtifactWriter::Write(const std::string& path) const {
  // Serialize the index first: payload offsets depend only on sizes, which
  // are known up front.
  std::string index;
  size_t index_bytes = 0;
  {
    // Dry run for the index size (offsets don't change record sizes).
    for (const auto& t : tensors_) {
      index_bytes += sizeof(uint32_t) + t.name.size() +  // name
                     sizeof(uint32_t) +                  // dtype
                     sizeof(uint32_t) +                  // rank
                     t.shape.size() * sizeof(uint32_t) + // dims
                     2 * sizeof(uint64_t);               // offset + bytes
    }
  }
  const size_t payload_start =
      tensors_.empty()
          ? kArtifactHeaderBytes + index_bytes
          : (kArtifactHeaderBytes + index_bytes + kPayloadAlign - 1) /
                kPayloadAlign * kPayloadAlign;

  size_t offset = payload_start;
  std::vector<size_t> offsets;
  offsets.reserve(tensors_.size());
  for (const auto& t : tensors_) {
    if (t.name.empty() || t.name.size() > kMaxNameLen) {
      return Status::InvalidArgument("artifact tensor name invalid: '" +
                                     t.name + "'");
    }
    if (t.shape.size() > kMaxRank) {
      return Status::InvalidArgument("artifact tensor rank too large for " +
                                     t.name);
    }
    uint64_t numel = t.shape.empty() ? 0 : 1;
    for (int d : t.shape) {
      if (d < 0 || static_cast<uint32_t>(d) > kMaxDim) {
        return Status::InvalidArgument("artifact tensor dim invalid for " +
                                       t.name);
      }
      numel *= static_cast<uint64_t>(d);
    }
    if (numel != t.size) {
      return Status::InvalidArgument(
          "artifact tensor size disagrees with shape for " + t.name);
    }
    offsets.push_back(offset);
    AppendU32(&index, static_cast<uint32_t>(t.name.size()));
    index.append(t.name);
    AppendU32(&index, static_cast<uint32_t>(ArtifactDtype::kF32));
    AppendU32(&index, static_cast<uint32_t>(t.shape.size()));
    for (int d : t.shape) AppendU32(&index, static_cast<uint32_t>(d));
    AppendU64(&index, static_cast<uint64_t>(offset));
    AppendU64(&index, static_cast<uint64_t>(t.size * sizeof(float)));
    offset = (offset + t.size * sizeof(float) + kPayloadAlign - 1) /
             kPayloadAlign * kPayloadAlign;
  }
  if (index.size() != index_bytes) {
    return Status::Internal("artifact index size accounting mismatch");
  }
  {
    // Duplicate names would make Find ambiguous; refuse to write them.
    std::unordered_map<std::string, int> seen;
    for (const auto& t : tensors_) {
      if (++seen[t.name] > 1) {
        return Status::InvalidArgument("duplicate artifact tensor name " +
                                       t.name);
      }
    }
  }

  // Assemble the payload section in memory so the checksum covers exactly
  // the bytes written (including alignment padding).
  std::string payload;
  if (!tensors_.empty()) {
    const size_t last = tensors_.size() - 1;
    const size_t payload_end =
        offsets[last] + tensors_[last].size * sizeof(float);
    payload.assign(payload_end - payload_start, '\0');
    for (size_t i = 0; i < tensors_.size(); ++i) {
      std::memcpy(payload.data() + (offsets[i] - payload_start),
                  tensors_[i].data, tensors_[i].size * sizeof(float));
    }
  }

  std::string header;
  header.reserve(kArtifactHeaderBytes);
  header.append(kArtifactMagic, sizeof(kArtifactMagic));
  AppendU32(&header, kArtifactVersion);
  AppendU32(&header, static_cast<uint32_t>(tensors_.size()));
  AppendU64(&header, static_cast<uint64_t>(index_bytes));
  AppendU64(&header, Fnv1a64({index.data(), index.size()}));
  AppendU64(&header, Fnv1a64({payload.data(), payload.size()}));
  if (header.size() != kArtifactHeaderBytes) {
    return Status::Internal("artifact header size accounting mismatch");
  }

  // Zero padding between the index and the aligned payload start.
  const std::string padding(
      payload_start - kArtifactHeaderBytes - index_bytes, '\0');
  return ReplaceFile(path, {header, index, padding, payload});
}

}  // namespace io
}  // namespace dtt
