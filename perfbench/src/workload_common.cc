#include "workload_common.h"

#include <utility>

#include "data/realworld_datasets.h"
#include "text/vocab.h"
#include "util/rng.h"

namespace perfbench {

namespace {

/// Model weights are fixed; only the inputs come from --seed.
constexpr uint64_t kModelSeed = 0x5EED0D77;

}  // namespace

dtt::Dataset MakeWtCorpus(uint64_t seed, double row_scale) {
  dtt::RealWorldOptions options;
  options.row_scale = row_scale;
  dtt::Rng rng = dtt::Rng(seed).Fork(dtt::Rng::HashString("WT"));
  return dtt::MakeWebTables(options, &rng);
}

dtt::nn::TransformerConfig BenchModelConfig() {
  dtt::nn::TransformerConfig cfg;
  cfg.dim = 48;
  cfg.num_heads = 4;
  cfg.ff_hidden = 96;
  cfg.encoder_layers = 3;
  cfg.decoder_layers = 1;
  cfg.max_len = 160;
  return cfg;
}

dtt::Result<dtt::io::ArtifactModel> WriteAndLoadBenchModel(
    const std::string& path, double* load_ms) {
  const dtt::nn::TransformerConfig cfg = BenchModelConfig();
  {
    dtt::Rng init_rng(kModelSeed);
    dtt::nn::Transformer model(cfg, &init_rng);
    std::vector<dtt::nn::NamedParam> params = model.Params();
    for (auto& p : params) {
      if (p.name == "model.lm_head.bias") {
        p.var.mutable_value().data()[dtt::Vocab::kEos] -= 1e4f;
      }
    }
    dtt::Status saved = dtt::io::SaveArtifact(path, params);
    if (!saved.ok()) return saved;
  }
  const Clock::time_point start = Clock::now();
  dtt::Result<dtt::io::ArtifactModel> loaded =
      dtt::io::LoadArtifact(path, cfg);
  *load_ms = MillisBetween(start, Clock::now());
  return loaded;
}

std::shared_ptr<dtt::NeuralSeq2SeqModel> MakeNeuralModel(
    std::shared_ptr<dtt::nn::Transformer> transformer, int max_output_tokens,
    int beam_size) {
  dtt::SerializerOptions serializer;
  serializer.max_tokens = BenchModelConfig().max_len;
  dtt::NeuralModelOptions options;
  options.max_output_tokens = max_output_tokens;
  options.beam_size = beam_size;
  return std::make_shared<dtt::NeuralSeq2SeqModel>(
      std::move(transformer), dtt::Serializer(serializer), options);
}

std::vector<Metric> LayerMetrics(const LayerInputs& in) {
  const MetricsDelta delta(in.before, in.after);
  std::vector<Metric> out;
  auto add = [&out](const std::string& name, const std::string& unit,
                    double value, uint64_t samples = 0) {
    out.push_back({name, unit, value, samples, ""});
  };
  auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  // serve: the program's own instruments, as deltas over the window.
  const uint64_t waits = delta.HistogramCount("serve.queue_wait_ms");
  add("serve.queue_wait_ms.p50", "ms",
      delta.HistogramPercentile("serve.queue_wait_ms", 0.50), waits);
  add("serve.queue_wait_ms.p99", "ms",
      delta.HistogramPercentile("serve.queue_wait_ms", 0.99), waits);
  const double batches = static_cast<double>(delta.Counter("serve.batches"));
  add("serve.batch_size.mean", "count",
      ratio(static_cast<double>(delta.Counter("serve.prompts.decoded")),
            batches),
      static_cast<uint64_t>(batches));
  const double lookups =
      static_cast<double>(delta.Counter("serve.cache.hits") +
                          delta.Counter("serve.cache.misses"));
  add("serve.cache_hit_rate", "ratio",
      ratio(static_cast<double>(delta.Counter("serve.cache.hits")), lookups),
      static_cast<uint64_t>(lookups));
  add("serve.dedup_rate", "ratio",
      ratio(static_cast<double>(delta.Counter("serve.prompts.dedup_joins")),
            lookups),
      static_cast<uint64_t>(lookups));

  // serve.cb and nn: the decoder decorator's spans.
  std::vector<double> step_ms;
  double admits = 0, admitted = 0, admit_ms = 0, tokens = 0, padded = 0;
  double prepares = 0, prepare_ms = 0, live = 0, step_total_ms = 0;
  for (const Span& s : in.spans) {
    switch (s.kind) {
      case SpanKind::kAdmit:
        ++admits;
        admitted += static_cast<double>(s.a);
        tokens += static_cast<double>(s.b);
        padded += static_cast<double>(s.c);
        admit_ms += s.Millis();
        break;
      case SpanKind::kPrepare:
        ++prepares;
        prepare_ms += s.Millis();
        break;
      case SpanKind::kStep:
        step_ms.push_back(s.Millis());
        live += static_cast<double>(s.a);
        step_total_ms += s.Millis();
        break;
      default:
        break;
    }
  }
  const auto steps = static_cast<uint64_t>(step_ms.size());
  add("serve.cb.admit_group_size.mean", "count", ratio(admitted, admits),
      static_cast<uint64_t>(admits));
  add("serve.cb.pad_ratio", "ratio", ratio(padded, tokens),
      static_cast<uint64_t>(admits));
  add("serve.cb.live_per_step.mean", "count",
      ratio(live, static_cast<double>(steps)), steps);

  // models: busy time, call tail and prompts per backend.
  for (Backend backend : kAllBackends) {
    std::vector<double> call_ms;
    double busy_ms = 0.0;
    double prompts = 0.0;
    for (const Span& s : in.spans) {
      if (s.backend != backend) continue;
      busy_ms += s.Millis();
      if (s.kind == SpanKind::kPrepare) continue;
      call_ms.push_back(s.Millis());
      if (s.kind == SpanKind::kModelCall || s.kind == SpanKind::kAdmit) {
        prompts += static_cast<double>(s.a);
      }
    }
    const std::string prefix = std::string("models.") + BackendLabel(backend);
    const auto calls = static_cast<uint64_t>(call_ms.size());
    add(prefix + ".busy_ms", "ms", busy_ms, calls);
    add(prefix + ".call_ms.p99", "ms", Percentile(call_ms, 0.99), calls);
    add(prefix + ".prompts", "count", prompts);
  }

  add("nn.prepare_us.mean", "us", ratio(prepare_ms * 1e3, prepares),
      static_cast<uint64_t>(prepares));
  add("nn.admit_ms.mean", "ms", ratio(admit_ms, admits),
      static_cast<uint64_t>(admits));
  add("nn.admit_us_per_token", "us", ratio(admit_ms * 1e3, tokens),
      static_cast<uint64_t>(admits));
  add("nn.step_ms.p50", "ms", Percentile(step_ms, 0.50), steps);
  add("nn.step_ms.p99", "ms", Percentile(step_ms, 0.99), steps);
  add("nn.step_us_per_row", "us", ratio(step_total_ms * 1e3, live), steps);
  add("nn.session.compact_moves", "count",
      static_cast<double>(delta.Counter("nn.session.compact_moves")));
  add("nn.generate.steps", "count",
      static_cast<double>(delta.Counter("nn.generate.steps")));
  add("nn.beam.steps", "count",
      static_cast<double>(delta.Counter("nn.beam.steps")));

  // core: the offline TransformAll + Join path.
  double transform_all_ms = 0.0, join_ms = 0.0, model_busy_in_core = 0.0;
  uint64_t transform_calls = 0, join_calls = 0;
  for (const Span& s : in.spans) {
    if (s.kind == SpanKind::kTransformAll) {
      transform_all_ms += s.Millis();
      ++transform_calls;
    } else if (s.kind == SpanKind::kJoin) {
      join_ms += s.Millis();
      ++join_calls;
    } else if (s.kind == SpanKind::kModelCall) {
      model_busy_in_core += s.Millis();
    }
  }
  add("core.transform_all_ms", "ms", transform_all_ms, transform_calls);
  add("core.join_ms", "ms", join_ms, join_calls);
  add("core.overhead_share", "ratio",
      transform_all_ms > 0.0
          ? 1.0 - model_busy_in_core / (transform_all_ms * kWorkers)
          : 0.0,
      transform_calls);

  add("io.load_artifact_ms", "ms", in.load_artifact_ms);

  const double window_ms = MillisBetween(in.t0, in.t1);
  add("trace.unattributed_share", "ratio",
      ratio(window_ms - SpanLog::CoveredMillis(in.spans, in.t0, in.t1),
            window_ms));
  return out;
}

}  // namespace perfbench
