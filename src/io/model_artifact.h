#ifndef DTT_IO_MODEL_ARTIFACT_H_
#define DTT_IO_MODEL_ARTIFACT_H_

#include <memory>
#include <string>
#include <vector>

#include "io/artifact.h"
#include "nn/layers.h"
#include "nn/transformer.h"

namespace dtt {
namespace io {

/// Writes the parameters as one DTTART1 artifact (names and shapes exactly
/// as CollectParams reports them). This is the one weight format: training
/// saves it, LoadArtifactParams reads it back as writable weights, and
/// LoadArtifact serves it from the mmap.
Status SaveArtifact(const std::string& path,
                    const std::vector<nn::NamedParam>& params);

/// Loads the DTTART1 file at `path` into existing parameters as owned,
/// writable tensors: the heap copy a trainable model needs. Opens with the
/// default options (payload checksum verified), matches tensors by name,
/// and validates count, names, shapes and dtype before writing anything, so
/// a non-OK return leaves `params` unchanged. A borrowed parameter is
/// rebound to fresh storage, never written through.
Status LoadArtifactParams(const std::string& path,
                          std::vector<nn::NamedParam>* params);

/// Re-binds every parameter in `params` to a read-only borrowed view
/// (nn::Tensor::Borrowed) over `artifact`'s mapped payloads. Validates
/// count, names, shapes, and dtype before touching anything — a non-OK
/// return leaves `params` unchanged. The caller must keep `artifact` alive
/// for as long as any bound parameter (or copy of one) is in use.
Status BindArtifact(const std::shared_ptr<ArtifactFile>& artifact,
                    std::vector<nn::NamedParam>* params);

/// A transformer whose weights live in an mmap'd artifact. The handle owns
/// both pieces; keep it (or at least `artifact`) alive while `model` runs.
struct ArtifactModel {
  std::shared_ptr<ArtifactFile> artifact;
  std::shared_ptr<nn::Transformer> model;
};

/// Materializes a Transformer of configuration `cfg` whose weight tensors
/// are mmap-backed read-only views into the DTTART1 file at `path` — the
/// near-instant, page-cache-shared counterpart of constructing a model and
/// LoadArtifactParams'ing into it. The model is inference-only: optimizer
/// steps (any in-place weight write) abort by the borrowed-tensor contract.
Result<ArtifactModel> LoadArtifact(const std::string& path,
                                   const nn::TransformerConfig& cfg,
                                   ArtifactOpenOptions options = {});

}  // namespace io
}  // namespace dtt

#endif  // DTT_IO_MODEL_ARTIFACT_H_
