// Micro-benchmarks (google-benchmark) for the performance-critical
// primitives: edit distance, tokenization, serialization, program synthesis,
// aggregation, join and neural forward/backward steps. Results also land in
// a machine-readable JSON document (bench/bench_json.h) per run.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "bench/bench_json.h"
#include "core/aggregator.h"
#include "core/joiner.h"
#include "io/model_artifact.h"
#include "models/alignment.h"
#include "models/pattern_induction.h"
#include "nn/infer_internal.h"
#include "nn/trainer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/serializer.h"
#include "text/vocab.h"
#include "transform/sampler.h"
#include "util/edit_distance.h"

namespace dtt {
namespace nn {

// Access to the private graph-free encoder.
struct TransformerPeer {
  static Tensor EncodeRows(const Transformer& model,
                           const std::vector<std::vector<int>>& prompts,
                           std::vector<int>* offsets) {
    return model.EncodeRows(prompts, offsets);
  }
};

}  // namespace nn

namespace {

std::string MakeString(size_t len, uint64_t seed) {
  Rng rng(seed);
  SourceTextOptions opts;
  opts.min_len = static_cast<int>(len);
  opts.max_len = static_cast<int>(len);
  return RandomSourceText(opts, &rng);
}

void BM_EditDistance(benchmark::State& state) {
  std::string a = MakeString(static_cast<size_t>(state.range(0)), 1);
  std::string b = MakeString(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EditDistance(a, b));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EditDistance)->Range(8, 512)->Complexity(benchmark::oNSquared);

void BM_BoundedEditDistance(benchmark::State& state) {
  std::string a = MakeString(static_cast<size_t>(state.range(0)), 1);
  std::string b = a;
  b[0] = '!';  // distance 1, bound 4 -> narrow band
  for (auto _ : state) {
    benchmark::DoNotOptimize(BoundedEditDistance(a, b, 4));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BoundedEditDistance)->Range(8, 512)->Complexity(benchmark::oN);

void BM_TokenizerEncode(benchmark::State& state) {
  ByteTokenizer tokenizer;
  std::string s = MakeString(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.Encode(s, true));
  }
}
BENCHMARK(BM_TokenizerEncode)->Range(16, 1024);

void BM_SerializePrompt(benchmark::State& state) {
  Serializer serializer;
  Prompt p;
  p.examples = {{MakeString(20, 4), MakeString(10, 5)},
                {MakeString(20, 6), MakeString(10, 7)}};
  p.source = MakeString(20, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(serializer.EncodePrompt(p));
  }
}
BENCHMARK(BM_SerializePrompt);

void BM_SynthesizePrograms(benchmark::State& state) {
  induction::InductionConfig cfg;
  // A realistic name-to-userid example at the requested source length.
  std::string src = MakeString(static_cast<size_t>(state.range(0)), 9);
  ExamplePair ex{src, src.substr(0, std::min<size_t>(6, src.size()))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(induction::SynthesizePrograms(ex, cfg));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SynthesizePrograms)->RangeMultiplier(2)->Range(8, 64);

// WT-shaped context examples (about 31-character sources, 20-character
// targets): the per-prompt synthesis cost of the simulated DTT model.
const ExamplePair kWebRow1{"Justin Pierre Trudeau, Ottawa ON",
                           "j.trudeau@ottawa.ca"};
const ExamplePair kWebRow2{"Kim Abigail Campbell, Vancouver BC",
                           "k.campbell@vancouver.ca"};

void BM_SynthesizeProgramsWebRow(benchmark::State& state) {
  induction::InductionConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(induction::SynthesizePrograms(kWebRow1, cfg));
  }
}
BENCHMARK(BM_SynthesizeProgramsWebRow);

void BM_SynthesizeCommonPrograms(benchmark::State& state) {
  induction::InductionConfig cfg;
  const std::vector<ExamplePair> examples = {kWebRow1, kWebRow2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        induction::SynthesizeCommonPrograms(examples, cfg));
  }
}
BENCHMARK(BM_SynthesizeCommonPrograms);

// What the simulated DTT model does per prompt: the same joint search, but
// the walk stops at the first program that applies to the input row.
void BM_FirstCommonProgramOutput(benchmark::State& state) {
  induction::InductionConfig cfg;
  const std::vector<ExamplePair> examples = {kWebRow1, kWebRow2};
  const induction::TokenCache source("Stephen Joseph Harper, Calgary AB",
                                     cfg.separators);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        induction::FirstCommonProgramOutput(examples, source, cfg));
  }
}
BENCHMARK(BM_FirstCommonProgramOutput);

// The simulated DTT model's single-example fallback once both context
// examples are in its memo: each example's cached programs run on the input
// row, and the best-scoring output wins, with no search.
void BM_FallbackMemoHit(benchmark::State& state) {
  induction::InductionConfig cfg;
  FallbackMemo memo(cfg);
  const std::vector<ExamplePair> examples = {kWebRow1, kWebRow2};
  const induction::TokenCache source("Stephen Joseph Harper, Calgary AB",
                                     cfg.separators);
  for (const ExamplePair& example : examples) {
    memo.FirstProgramOutput(example, source);  // the misses that fill it
  }
  for (auto _ : state) {
    double best_score = -1e18;
    for (const ExamplePair& example : examples) {
      auto single = memo.FirstProgramOutput(example, source);
      if (single && single->score > best_score) best_score = single->score;
    }
    benchmark::DoNotOptimize(best_score);
  }
}
BENCHMARK(BM_FallbackMemoHit);

void BM_Aggregate(benchmark::State& state) {
  Aggregator agg;
  std::vector<std::string> votes;
  Rng rng(10);
  for (int i = 0; i < state.range(0); ++i) {
    votes.push_back("candidate-" + std::to_string(rng.NextBounded(3)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(agg.Aggregate(votes));
  }
}
BENCHMARK(BM_Aggregate)->Range(5, 100);

void BM_Join(benchmark::State& state) {
  EditDistanceJoiner joiner;
  std::vector<std::string> preds, targets;
  for (int i = 0; i < state.range(0); ++i) {
    preds.push_back(MakeString(16, 100 + static_cast<uint64_t>(i)));
    targets.push_back(MakeString(16, 200 + static_cast<uint64_t>(i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(joiner.Join(preds, targets));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Join)->Range(8, 128)->Complexity(benchmark::oNSquared);

nn::TransformerConfig BenchConfig() {
  nn::TransformerConfig cfg;
  cfg.dim = 48;
  cfg.num_heads = 4;
  cfg.ff_hidden = 96;
  cfg.encoder_layers = 2;
  cfg.decoder_layers = 1;
  cfg.max_len = 160;
  return cfg;
}

void BM_TransformerEncode(benchmark::State& state) {
  Rng rng(11);
  nn::Transformer model(BenchConfig(), &rng);
  std::vector<int> ids(static_cast<size_t>(state.range(0)), 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Encode(ids));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TransformerEncode)->RangeMultiplier(2)->Range(16, 128);

void BM_TrainStep(benchmark::State& state) {
  Rng rng(12);
  nn::Transformer model(BenchConfig(), &rng);
  SerializerOptions sopts;
  sopts.max_tokens = 160;
  nn::TrainerOptions topts;
  nn::Seq2SeqTrainer trainer(&model, Serializer(sopts), topts);
  TrainingInstance inst;
  inst.context = {{"abc-def", "DEF"}, {"ghi-jkl", "JKL"}};
  inst.input_source = "mno-pqr";
  inst.label = "PQR";
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.InstanceLoss(inst, /*backprop=*/true));
    trainer.optimizer().Step();
  }
}
BENCHMARK(BM_TrainStep);

void BM_BatchTrainStep(benchmark::State& state) {
  Rng rng(13);
  nn::Transformer model(BenchConfig(), &rng);
  SerializerOptions sopts;
  sopts.max_tokens = 160;
  nn::TrainerOptions topts;
  nn::Seq2SeqTrainer trainer(&model, Serializer(sopts), topts);
  std::vector<TrainingInstance> instances(
      static_cast<size_t>(state.range(0)));
  for (auto& inst : instances) {
    inst.context = {{"abc-def", "DEF"}, {"ghi-jkl", "JKL"}};
    inst.input_source = "mno-pqr";
    inst.label = "PQR";
  }
  std::vector<const TrainingInstance*> batch;
  for (const auto& inst : instances) batch.push_back(&inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.BatchLoss(batch, /*backprop=*/true));
    trainer.optimizer().Step();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BatchTrainStep)->Arg(4)->Arg(16);

void BM_GenerateBatch(benchmark::State& state) {
  Rng rng(14);
  nn::Transformer model(BenchConfig(), &rng);
  std::vector<std::vector<int>> inputs(
      static_cast<size_t>(state.range(0)),
      std::vector<int>(48, 42));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.GenerateBatch(inputs, 12));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GenerateBatch)->Arg(1)->Arg(8);

// The inference encoder at the perfbench model shape (three encoder layers)
// over `count` distinct prompts of 140-159 tokens, about one serialized DTT
// prompt each.
nn::TransformerConfig EncoderBenchConfig() {
  nn::TransformerConfig cfg = BenchConfig();
  cfg.encoder_layers = 3;
  return cfg;
}

std::vector<std::vector<int>> EncoderBenchPrompts(int count) {
  Rng rng(17);
  std::vector<std::vector<int>> prompts(static_cast<size_t>(count));
  for (auto& p : prompts) {
    p.resize(140 + rng.NextBounded(20));
    for (auto& id : p) {
      id = Vocab::ByteToken(static_cast<uint8_t>(rng.NextBounded(256)));
    }
  }
  return prompts;
}

// The graph-free, unpadded encoder every decode engine runs.
void BM_EncodeRows(benchmark::State& state) {
  Rng rng(18);
  nn::Transformer model(EncoderBenchConfig(), &rng);
  const auto prompts = EncoderBenchPrompts(static_cast<int>(state.range(0)));
  std::vector<int> offsets;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nn::TransformerPeer::EncodeRows(model, prompts, &offsets));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeRows)->Arg(1)->Arg(8);

// The same encoder over one prompt of exactly `len` tokens: 71 is the
// prompt length perfbench's stream_longtail serves (nn.admit_us_per_token
// reads about 85 tokens per admit of 1.2 prompts).
void BM_EncodeRowsLen(benchmark::State& state) {
  Rng rng(18);
  nn::Transformer model(EncoderBenchConfig(), &rng);
  std::vector<std::vector<int>> prompts = EncoderBenchPrompts(1);
  prompts[0].resize(static_cast<size_t>(state.range(0)));
  std::vector<int> offsets;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nn::TransformerPeer::EncodeRows(model, prompts, &offsets));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeRowsLen)->Arg(71);

// The encoder's attention kernel alone at the perfbench shape: one sequence
// of `len` rows, dim 48, 4 heads (head width 12).
void BM_AttendSequences(benchmark::State& state) {
  Rng rng(20);
  const int len = static_cast<int>(state.range(0));
  const int dim = 48;
  nn::MultiHeadAttention attn(dim, 4, &rng);
  nn::Tensor q({len, dim}), k({len, dim}), v({len, dim});
  for (nn::Tensor* t : {&q, &k, &v}) {
    for (size_t i = 0; i < t->size(); ++i) {
      t->data()[i] = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
    }
  }
  const std::vector<int> offsets = {0, len};
  nn::Tensor ctx;
  std::vector<float> scratch;
  for (auto _ : state) {
    nn::internal::AttendSequences(q, k, v, attn, offsets, &ctx, &scratch);
    benchmark::DoNotOptimize(ctx.data());
  }
  state.SetItemsProcessed(state.iterations() * len);
}
BENCHMARK(BM_AttendSequences)->Arg(150);

// The attention softmax alone: one head's [len, len] scores of a `len`-row
// sequence, in AttendSequences's 4-query blocks. Each iteration first
// restores the scores (a copy of len * len floats, included in the time).
void BM_SoftmaxRows(benchmark::State& state) {
  Rng rng(21);
  const int len = static_cast<int>(state.range(0));
  std::vector<float> scores(static_cast<size_t>(len) * len);
  for (float& x : scores) x = static_cast<float>(rng.NextDouble() * 8.0 - 4.0);
  std::vector<float> work(scores.size());
  for (auto _ : state) {
    work = scores;
    for (int i0 = 0; i0 < len; i0 += 4) {
      nn::internal::SoftmaxRows(work.data() + static_cast<size_t>(i0) * len,
                                std::min(4, len - i0), len);
    }
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(state.iterations() * len * len);
}
BENCHMARK(BM_SoftmaxRows)->Arg(71)->Arg(150);

// Distinct prompts for the beam benchmark: identical ones would collapse
// onto one encoder pass via the engine's prompt dedup and overstate the win.
std::vector<std::vector<int>> BeamBenchPrompts(int count) {
  Rng rng(15);
  std::vector<std::vector<int>> prompts(static_cast<size_t>(count));
  for (auto& p : prompts) {
    p.resize(48);
    for (auto& id : p) {
      id = Vocab::ByteToken(static_cast<uint8_t>(rng.NextBounded(256)));
    }
  }
  return prompts;
}

void BM_BeamDecodeBatch(benchmark::State& state) {
  Rng rng(16);
  nn::Transformer model(BenchConfig(), &rng);
  const auto prompts = BeamBenchPrompts(8);
  const int width = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.BeamDecodeBatch(prompts, 12, width));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(prompts.size()));
}
BENCHMARK(BM_BeamDecodeBatch)->Arg(1)->Arg(4);

// One DecodeSession::Step over `slots` resident sequences in steady state,
// the step a continuous backend runs at the perfbench model shape: <eos> is
// suppressed (as perfbench does) so every sequence runs its 24-token budget,
// the first fill gets staggered budgets so the slots' prefix lengths stay
// spread, and each sequence that finishes is released and its slot
// re-admitted with a pre-encoded prompt, so every timed step advances a
// full batch.
void BM_DecodeSessionStep(benchmark::State& state) {
  Rng rng(19);
  nn::Transformer model(EncoderBenchConfig(), &rng);
  for (auto& p : model.Params()) {
    if (p.name == "model.lm_head.bias") {
      p.var.mutable_value().data()[Vocab::kEos] -= 1e4f;
    }
  }
  const int slots = static_cast<int>(state.range(0));
  const int budget = 24;
  auto session = model.NewDecodeSession({slots, budget});
  std::vector<std::shared_ptr<const nn::EncodedPrompt>> encoded;
  for (const auto& prompt : EncoderBenchPrompts(2 * slots)) {
    encoded.push_back(session->Encode(prompt));
  }
  size_t next = 0;
  for (int s = 0; s < slots; ++s) {
    session->Install(*encoded[next++ % encoded.size()],
                     1 + s * budget / slots);
  }
  for (auto _ : state) {
    for (int handle : session->Step()) {
      session->Release(handle);
      session->Install(*encoded[next++ % encoded.size()]);
    }
  }
  state.SetItemsProcessed(state.iterations() * slots);
}
BENCHMARK(BM_DecodeSessionStep)->Arg(8);

// The observability fast paths themselves: a disabled TraceSpan must cost
// about one relaxed atomic load (this is the bench-level view of the <1%
// decode-overhead contract; the hard guard is ObsTraceTest.
// DisabledSpanOverhead), and a counter increment / histogram record must
// stay cheap enough for per-request serving paths.
void BM_DisabledSpan(benchmark::State& state) {
  for (auto _ : state) {
    obs::TraceSpan span("bench", "bench.disabled_span");
    benchmark::DoNotOptimize(span.enabled());
  }
}
BENCHMARK(BM_DisabledSpan);

void BM_CounterIncrement(benchmark::State& state) {
  static obs::Counter counter;
  for (auto _ : state) {
    counter.Increment();
  }
  benchmark::DoNotOptimize(counter.Value());
}
BENCHMARK(BM_CounterIncrement);

void BM_HistogramRecord(benchmark::State& state) {
  static obs::Histogram hist;
  double v = 0.001;
  for (auto _ : state) {
    hist.Record(v);
    v = v < 1000.0 ? v * 1.1 : 0.001;  // sweep buckets, defeat caching
  }
}
BENCHMARK(BM_HistogramRecord);

// Model cold-start: the same DTTART1 file through its two loads.
// BM_LoadArtifactParams is construct + full-verification open + copy into
// owned storage (the trainable heap path); BM_LoadArtifact is construct +
// mmap bind with the eager payload checksum off (the serving posture) — the
// delta is what serving from the mmap saves per cold load of one model.
struct LoadBenchFiles {
  nn::TransformerConfig cfg;
  std::string artifact;

  LoadBenchFiles() {
    cfg.dim = 64;
    cfg.num_heads = 4;
    cfg.ff_hidden = 128;
    cfg.encoder_layers = 2;
    cfg.decoder_layers = 1;
    cfg.max_len = 128;
    const auto dir =
        std::filesystem::temp_directory_path() / "dtt_bench_micro_io";
    std::filesystem::create_directories(dir);
    artifact = (dir / "model.dttart").string();
    Rng rng(11);
    nn::Transformer model(cfg, &rng);
    if (!io::SaveArtifact(artifact, model.Params()).ok()) {
      std::fprintf(stderr, "BM_Load setup failed\n");
      std::abort();
    }
  }
};

void BM_LoadArtifactParams(benchmark::State& state) {
  static LoadBenchFiles files;
  for (auto _ : state) {
    Rng rng(0);
    nn::Transformer model(files.cfg, &rng);
    auto params = model.Params();
    if (!io::LoadArtifactParams(files.artifact, &params).ok()) {
      state.SkipWithError("LoadArtifactParams failed");
      break;
    }
    benchmark::DoNotOptimize(params);
  }
}
BENCHMARK(BM_LoadArtifactParams);

void BM_LoadArtifact(benchmark::State& state) {
  static LoadBenchFiles files;
  for (auto _ : state) {
    auto loaded = io::LoadArtifact(files.artifact, files.cfg,
                                   {.verify_payload_checksum = false});
    if (!loaded.ok()) {
      state.SkipWithError("LoadArtifact failed");
      break;
    }
    benchmark::DoNotOptimize(loaded.value().model);
  }
}
BENCHMARK(BM_LoadArtifact);

/// Console output plus collection of every run for the JSON document.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(bench::BenchJsonReporter* json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      json_->AddRun(run.benchmark_name())
          .Set("iterations", static_cast<int64_t>(run.iterations))
          .Set("real_time_s",
               run.iterations > 0
                   ? run.real_accumulated_time / run.iterations
                   : 0.0)
          .Set("cpu_time_s",
               run.iterations > 0
                   ? run.cpu_accumulated_time / run.iterations
                   : 0.0);
    }
  }

 private:
  bench::BenchJsonReporter* json_;
};

}  // namespace
}  // namespace dtt

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  dtt::bench::BenchJsonReporter json("bench_micro");
  dtt::JsonTeeReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const std::string path = json.Write();
  if (!path.empty()) {
    std::printf("bench JSON written to %s\n", path.c_str());
  }
  return 0;
}
