#include "io/model_artifact.h"

#include <cstring>
#include <utility>

#include "util/rng.h"

namespace dtt {
namespace io {

Status SaveArtifact(const std::string& path,
                    const std::vector<nn::NamedParam>& params) {
  ArtifactWriter writer;
  for (const auto& p : params) {
    const nn::Tensor& t = p.var.value();
    writer.Add(p.name, t.shape(), t.data(), t.size());
  }
  return writer.Write(path);
}

namespace {

/// Checks that `artifact` holds exactly `params`: the same count, and for
/// every parameter a tensor of that name with the same shape and an f32
/// payload. Both loads run it before writing any parameter (no partial
/// loads).
Status CheckParamsMatch(const ArtifactFile& artifact,
                        const std::vector<nn::NamedParam>& params) {
  if (artifact.tensors().size() != params.size()) {
    return Status::InvalidArgument(
        "artifact has different parameter count (" +
        std::to_string(artifact.tensors().size()) + " vs " +
        std::to_string(params.size()) + ")");
  }
  for (const auto& p : params) {
    const ArtifactTensor* t = artifact.Find(p.name);
    if (t == nullptr) {
      return Status::InvalidArgument("artifact is missing parameter: " +
                                     p.name);
    }
    if (t->shape != p.var.value().shape()) {
      return Status::InvalidArgument("shape mismatch for parameter: " +
                                     p.name);
    }
    if (t->dtype != ArtifactDtype::kF32) {
      return Status::InvalidArgument("unsupported dtype for parameter: " +
                                     p.name);
    }
  }
  return Status::OK();
}

}  // namespace

Status LoadArtifactParams(const std::string& path,
                          std::vector<nn::NamedParam>* params) {
  DTT_ASSIGN_OR_RETURN(std::shared_ptr<ArtifactFile> artifact,
                       ArtifactFile::Open(path));
  DTT_RETURN_NOT_OK(CheckParamsMatch(*artifact, *params));
  for (auto& p : *params) {
    const ArtifactTensor* t = artifact->Find(p.name);
    nn::Tensor& dst = p.var.mutable_value();
    if (dst.borrowed()) {
      // The previous value may be an artifact-backed view, which rejects
      // in-place writes; loading replaces the storage wholesale.
      dst = nn::Tensor(t->shape);
    }
    if (t->size > 0) {
      std::memcpy(dst.data(), t->data, t->size * sizeof(float));
    }
  }
  return Status::OK();
}

Status BindArtifact(const std::shared_ptr<ArtifactFile>& artifact,
                    std::vector<nn::NamedParam>* params) {
  if (artifact == nullptr) {
    return Status::InvalidArgument("BindArtifact: null artifact");
  }
  DTT_RETURN_NOT_OK(CheckParamsMatch(*artifact, *params));
  for (auto& p : *params) {
    const ArtifactTensor* t = artifact->Find(p.name);
    p.var.mutable_value() = nn::Tensor::Borrowed(t->shape, t->data, t->size);
  }
  return Status::OK();
}

Result<ArtifactModel> LoadArtifact(const std::string& path,
                                   const nn::TransformerConfig& cfg,
                                   ArtifactOpenOptions options) {
  DTT_ASSIGN_OR_RETURN(std::shared_ptr<ArtifactFile> artifact,
                       ArtifactFile::Open(path, options));
  // The Xavier/Gaussian init below is overwritten wholesale by the bind;
  // the fixed seed just keeps construction deterministic.
  Rng init_rng(0);
  auto model = std::make_shared<nn::Transformer>(cfg, &init_rng);
  std::vector<nn::NamedParam> params = model->Params();
  DTT_RETURN_NOT_OK(BindArtifact(artifact, &params));
  return ArtifactModel{std::move(artifact), std::move(model)};
}

}  // namespace io
}  // namespace dtt
