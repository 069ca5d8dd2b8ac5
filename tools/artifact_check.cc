// CLI check of a DTTART1 model artifact (io/artifact.h):
//
//   artifact_check --check <model.dttart>
//       opens and fully verifies the artifact (index + payload checksums,
//       alignment, bounds) and prints its tensor table.
//
// Exit code 0 on success, 1 with a typed error message on a bad artifact,
// 2 on bad usage.
#include <cstdio>
#include <string>

#include "io/artifact.h"

namespace {

int PrintArtifact(const std::string& path) {
  auto opened = dtt::io::ArtifactFile::Open(path);
  if (!opened.ok()) {
    std::fprintf(stderr, "error: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  const auto& artifact = *opened.value();
  size_t total_elems = 0;
  std::printf("%-40s %-14s %s\n", "tensor", "shape", "bytes");
  for (const auto& t : artifact.tensors()) {
    std::string shape = "[";
    for (size_t i = 0; i < t.shape.size(); ++i) {
      if (i) shape += ",";
      shape += std::to_string(t.shape[i]);
    }
    shape += "]";
    std::printf("%-40s %-14s %zu\n", t.name.c_str(), shape.c_str(),
                t.size * sizeof(float));
    total_elems += t.size;
  }
  std::printf(
      "%zu tensors, %zu parameters, file %zu bytes, payload checksum "
      "%016llx — OK\n",
      artifact.tensors().size(), total_elems, artifact.file_bytes(),
      static_cast<unsigned long long>(artifact.payload_checksum()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3 || std::string(argv[1]) != "--check") {
    std::fprintf(stderr, "usage: artifact_check --check <model.dttart>\n");
    return 2;
  }
  return PrintArtifact(argv[2]);
}
