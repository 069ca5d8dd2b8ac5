#ifndef DTT_IO_MMAP_FILE_H_
#define DTT_IO_MMAP_FILE_H_

#include <cstddef>
#include <string>

#include "util/status.h"

namespace dtt {
namespace io {

/// A non-owning (pointer, size) window over read-only bytes — the currency
/// between the mmap layer and the artifact parser, so the parser can be
/// pointed at a map, a test buffer, or a slice of either.
struct View {
  const char* data = nullptr;
  size_t size = 0;
};

/// A whole file mapped read-only into the address space (PROT_READ,
/// MAP_SHARED): opening is O(1) in the file size, pages fault in lazily on
/// first touch, and every process mapping the same artifact shares one copy
/// of the weights through the page cache — the load-time contract of the
/// DTTART1 model-artifact path (io/artifact.h). Move-only; the mapping is
/// released on destruction.
class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile();

  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  /// Maps `path` read-only. An empty file yields a valid zero-size map.
  static Result<MmapFile> Open(const std::string& path);

  bool valid() const { return valid_; }
  const char* data() const { return static_cast<const char*>(addr_); }
  size_t size() const { return size_; }

 private:
  void Reset();

  void* addr_ = nullptr;
  size_t size_ = 0;
  bool valid_ = false;
};

}  // namespace io
}  // namespace dtt

#endif  // DTT_IO_MMAP_FILE_H_
