// Pieces shared by the perfbench workloads: run configuration, the result
// record, the WT-sim corpus, the seeded neural model written to and loaded
// from a DTTART1 artifact, and the per-layer metric table.
#ifndef PERFBENCH_WORKLOAD_COMMON_H_
#define PERFBENCH_WORKLOAD_COMMON_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/table.h"
#include "io/model_artifact.h"
#include "models/neural_model.h"
#include "obs/metrics.h"
#include "probes.h"
#include "stats.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Directory (inside the checkout) for the model artifact and traces.
  std::string workdir;
  /// Check every output against the fixed-batch reference. The traced pass
  /// skips it: its outputs are compared with the verified untraced pass.
  bool verify = true;
};

/// Everything one pass of a workload produced.
struct WorkloadResult {
  bool correct = true;   // every output equalled its reference
  bool valid = true;     // the load generator kept its schedule
  uint64_t attempted = 0;
  uint64_t failed = 0;   // rejected + errored + mismatched rows
  double rows_per_s = 0.0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Printed with the pass, not part of the JSON result.
  std::vector<Metric> printed;
  std::vector<std::string> notes;  // printed before the metrics
  /// Digest of the deterministic outputs (identical traced and untraced).
  std::string digest;
  std::vector<Span> spans;
};

/// A workload pass: `log` is null for the untraced pass.
using WorkloadFn =
    std::function<WorkloadResult(const RunConfig&, SpanLog* log)>;

WorkloadResult RunStreamLongtail(const RunConfig& config, SpanLog* log);
WorkloadResult RunServeMixed(const RunConfig& config, SpanLog* log);
WorkloadResult RunTableJoin(const RunConfig& config, SpanLog* log);

/// Set-ups per run; setup_s is their median. They are spread over the run
/// so that one stretch of host speed does not set the figure: kSetupReps / 3
/// before the measured phases, as many right after them and the rest after
/// the output check.
constexpr int kSetupReps = 15;

/// Times `reps` throwaway set-ups made by `build`, appending their seconds;
/// each instance is torn down outside the timed region.
template <typename Build>
void TimeSetups(int reps, const Build& build, std::vector<double>* seconds) {
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    const auto instance = build();
    seconds->push_back(MillisBetween(start, Clock::now()) / 1e3);
  }
}

/// Pool workers of every service and of TransformAll.
constexpr int kWorkers = 2;
/// Threads of the reference pipelines, which run after the measured window.
constexpr int kReferenceWorkers = 4;

/// WT-sim (noisy web-table rows of about 31 characters), made from the seed.
dtt::Dataset MakeWtCorpus(uint64_t seed, double row_scale = 1.0);

/// The trained-model shape of examples/train_model: dim 48, 4 heads, ff 96,
/// 3 encoder and 1 decoder layers, max_len 160.
dtt::nn::TransformerConfig BenchModelConfig();

/// Writes the seeded bench transformer (EOS logit suppressed, so every decode
/// runs to its token budget) to `path` as a DTTART1 artifact and loads it
/// back with io::LoadArtifact. `load_ms` receives the load time.
dtt::Result<dtt::io::ArtifactModel> WriteAndLoadBenchModel(
    const std::string& path, double* load_ms);

std::shared_ptr<dtt::NeuralSeq2SeqModel> MakeNeuralModel(
    std::shared_ptr<dtt::nn::Transformer> transformer, int max_output_tokens,
    int beam_size);

/// Inputs to the per-layer metric table of one traced pass.
struct LayerInputs {
  std::vector<Span> spans;
  dtt::obs::MetricsSnapshot before;
  dtt::obs::MetricsSnapshot after;
  Clock::time_point t0;  // the measured window
  Clock::time_point t1;
  double load_artifact_ms = 0.0;
};

/// Every per-layer metric, in BENCHMARK.json order; 0 where a layer does not
/// run on the workload.
std::vector<Metric> LayerMetrics(const LayerInputs& in);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_COMMON_H_
