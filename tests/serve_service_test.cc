#include "serve/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "io/model_artifact.h"
#include "models/knowledge_lm.h"
#include "models/neural_model.h"
#include "models/pattern_induction.h"
#include "testing/temp_dir.h"
#include "text/serializer.h"
#include "util/rng.h"

namespace dtt {
namespace serve {
namespace {

std::vector<ExamplePair> NameExamples() {
  return {{"Justin Trudeau", "jtrudeau"}, {"Stephen Harper", "sharper"},
          {"Paul Martin", "pmartin"},     {"Jean Chretien", "jchretien"},
          {"John Turner", "jturner"},     {"Joe Clark", "jclark"},
          {"Lester Pearson", "lpearson"}};
}

std::vector<std::string> NameSources() {
  return {"Kim Campbell",     "Brian Mulroney", "Pierre Trudeau",
          "John Diefenbaker", "Louis St Laurent", "Mackenzie King",
          "Arthur Meighen",   "Robert Borden"};
}

/// A pure, thread-safe model that counts decodes: the observable for cache
/// dedup (outputs depend only on the prompt, so caching is transparent).
class CountingModel : public TextToTextModel {
 public:
  std::string name() const override { return "counting"; }
  Result<std::string> Transform(const Prompt& prompt) override {
    calls_.fetch_add(1);
    return "t:" + prompt.source + "/" + std::to_string(prompt.examples.size());
  }
  bool thread_safe() const override { return true; }
  int calls() const { return calls_.load(); }

 private:
  std::atomic<int> calls_{0};
};

TEST(ServeServiceTest, SubmitYieldsAggregatedPrediction) {
  ServeOptions opts;
  opts.decomposer.num_trials = 5;
  TransformService service(std::make_shared<PatternInductionModel>(), opts);
  auto admitted = service.Submit("Kim Campbell", NameExamples());
  ASSERT_TRUE(admitted.ok());
  RowPrediction row = admitted.value().get();
  EXPECT_EQ(row.source, "Kim Campbell");
  EXPECT_EQ(row.prediction, "kcampbell");
  EXPECT_GT(row.support, 0);
}

TEST(ServeServiceTest, NoExamplesCompletesAsAbstention) {
  TransformService service(std::make_shared<PatternInductionModel>());
  auto admitted = service.Submit("anything", {});
  ASSERT_TRUE(admitted.ok());
  RowPrediction row = admitted.value().get();
  EXPECT_TRUE(row.prediction.empty());
  EXPECT_EQ(row.support, 0);
}

// The acceptance bar of the serve subsystem: for the same seed, the service
// is bit-identical to the PR 2 fixed-batch path across thread counts and
// queue configurations (different per-backend batch sizes, micro-batch
// windows, queue depths, cache on/off).
TEST(ServeServiceTest, BitIdenticalToFixedBatchAcrossConfigs) {
  const auto examples = NameExamples();
  const auto sources = NameSources();
  const uint64_t seed = 424242;

  std::vector<std::shared_ptr<TextToTextModel>> models = {
      std::make_shared<PatternInductionModel>(),
      std::make_shared<KnowledgeLM>()};
  PipelineOptions popts;
  popts.decomposer.num_trials = 5;
  popts.batch_size = 3;
  DttPipeline pipeline(models, popts);
  Rng fixed_rng(seed);
  const auto fixed =
      pipeline.TransformAllFixedBatch(sources, examples, &fixed_rng);
  ASSERT_EQ(fixed.size(), sources.size());

  struct Config {
    int num_threads;
    int fast_batch;
    int slow_batch;
    double max_wait_ms;
    size_t max_pending;
    bool cache;
  };
  const std::vector<Config> configs = {
      {1, 4, 2, 0.0, 64, true},   // serial, uneven per-backend batches
      {4, 4, 2, 0.0, 64, true},   // threaded, same queues
      {1, 7, 16, 0.5, 8, false},  // micro-batch window, tight admission
      {4, 7, 16, 0.5, 8, true},   // threaded + window + cache
      {4, 1, 1, 0.0, 64, true},   // per-prompt Transform path
  };
  for (const Config& config : configs) {
    ServeOptions sopts;
    sopts.decomposer.num_trials = 5;
    Rng rng(seed);
    sopts.seed = rng.Next();  // the same single draw as the fixed path
    sopts.num_threads = config.num_threads;
    BackendQueueOptions fast_q{config.fast_batch, config.max_wait_ms, {}};
    BackendQueueOptions slow_q{config.slow_batch, config.max_wait_ms, {}};
    sopts.backends = {fast_q, slow_q};
    sopts.max_pending_rows = config.max_pending;
    sopts.cache.enabled = config.cache;
    TransformService service(models, sopts);
    std::vector<std::future<RowPrediction>> futures;
    for (const auto& source : sources) {
      // Stay under max_pending_rows by draining eagerly when tight.
      auto admitted = service.Submit(source, examples);
      ASSERT_TRUE(admitted.ok());
      futures.push_back(std::move(admitted).value());
      if (futures.size() % config.max_pending == config.max_pending - 1) {
        service.Drain();
      }
    }
    service.Drain();
    for (size_t r = 0; r < sources.size(); ++r) {
      RowPrediction got = futures[r].get();
      EXPECT_EQ(got.prediction, fixed[r].prediction)
          << "row " << r << " threads " << config.num_threads << " batches "
          << config.fast_batch << "/" << config.slow_batch << " cache "
          << config.cache;
      EXPECT_EQ(got.support, fixed[r].support) << "row " << r;
      EXPECT_DOUBLE_EQ(got.confidence, fixed[r].confidence) << "row " << r;
    }
  }
}

// TransformAll now runs on top of the service and must keep matching the
// fixed-batch reference for any pipeline batch/thread configuration.
TEST(ServeServiceTest, PipelineTransformAllMatchesFixedBatch) {
  const auto examples = NameExamples();
  const auto sources = NameSources();
  for (const auto& [batch_size, num_threads] :
       std::vector<std::pair<int, int>>{{3, 1}, {16, 4}, {1, 4}}) {
    PipelineOptions opts;
    opts.decomposer.num_trials = 5;
    opts.batch_size = batch_size;
    opts.num_threads = num_threads;
    DttPipeline pipeline(std::make_shared<PatternInductionModel>(), opts);
    Rng rng_fixed(77);
    Rng rng_serve(77);
    const auto fixed =
        pipeline.TransformAllFixedBatch(sources, examples, &rng_fixed);
    const auto served = pipeline.TransformAll(sources, examples, &rng_serve);
    ASSERT_EQ(served.size(), fixed.size());
    for (size_t r = 0; r < fixed.size(); ++r) {
      EXPECT_EQ(served[r].prediction, fixed[r].prediction)
          << "row " << r << " batch " << batch_size << " threads "
          << num_threads;
      EXPECT_EQ(served[r].support, fixed[r].support) << "row " << r;
    }
  }
}

// Beam-decoded backends micro-batch exactly like greedy ones: a beam_size>1
// NeuralSeq2SeqModel served through the micro-batch schedulers (batched
// Transformer::BeamDecodeBatch dispatches) must stay bit-identical to the
// fixed-batch reference for any batch size or thread count.
TEST(ServeServiceTest, BeamBackendDeterministicAcrossConfigs) {
  nn::TransformerConfig cfg;
  cfg.dim = 16;
  cfg.num_heads = 2;
  cfg.ff_hidden = 32;
  cfg.encoder_layers = 2;
  cfg.decoder_layers = 1;
  cfg.max_len = 128;
  Rng init_rng(515);
  auto transformer = std::make_shared<nn::Transformer>(cfg, &init_rng);
  SerializerOptions sopts;
  sopts.max_tokens = cfg.max_len;
  NeuralModelOptions nopts;
  nopts.max_output_tokens = 8;
  nopts.beam_size = 2;
  auto model = std::make_shared<NeuralSeq2SeqModel>(
      transformer, Serializer(sopts), nopts);

  const auto examples = NameExamples();
  const auto sources = NameSources();
  std::vector<std::string> reference;
  for (const auto& [batch_size, num_threads] :
       std::vector<std::pair<int, int>>{{1, 1}, {8, 1}, {8, 4}}) {
    PipelineOptions opts;
    opts.decomposer.num_trials = 3;
    opts.batch_size = batch_size;
    opts.num_threads = num_threads;
    DttPipeline pipeline(model, opts);
    Rng rng_fixed(515);
    Rng rng_serve(515);
    const auto fixed =
        pipeline.TransformAllFixedBatch(sources, examples, &rng_fixed);
    const auto served = pipeline.TransformAll(sources, examples, &rng_serve);
    ASSERT_EQ(served.size(), sources.size());
    if (reference.empty()) {
      for (const auto& row : served) reference.push_back(row.prediction);
    }
    for (size_t r = 0; r < served.size(); ++r) {
      EXPECT_EQ(served[r].prediction, fixed[r].prediction)
          << "row " << r << " batch " << batch_size << " threads "
          << num_threads;
      EXPECT_EQ(served[r].prediction, reference[r])
          << "row " << r << " batch " << batch_size << " threads "
          << num_threads;
    }
  }
}

TEST(ServeServiceTest, CacheDedupsIdenticalPromptsAcrossRequests) {
  auto model = std::make_shared<CountingModel>();
  ServeOptions opts;
  // 3 examples, k=2 -> all C(3,2)=3 contexts enumerated: a repeated source
  // reproduces its exact prompts, the serving-shaped dedup case.
  opts.decomposer.context_size = 2;
  opts.decomposer.num_trials = 5;
  std::vector<ExamplePair> examples = {{"a", "1"}, {"b", "2"}, {"c", "3"}};
  TransformService service(model, opts);

  auto first = service.Submit("x", examples).value().get();
  const int cold_calls = model->calls();
  EXPECT_EQ(cold_calls, 3);  // one decode per enumerated context
  auto second = service.Submit("x", examples).value().get();
  EXPECT_EQ(model->calls(), cold_calls);  // pure cache hits, no new decode
  EXPECT_EQ(second.prediction, first.prediction);
  EXPECT_EQ(second.support, first.support);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.hits, 3u);
  EXPECT_EQ(stats.cache.misses, 3u);
}

TEST(ServeServiceTest, InflightDuplicatesCoalesceWhilePaused) {
  auto model = std::make_shared<CountingModel>();
  ServeOptions opts;
  opts.decomposer.context_size = 2;
  opts.decomposer.num_trials = 5;
  opts.start_paused = true;
  std::vector<ExamplePair> examples = {{"a", "1"}, {"b", "2"}, {"c", "3"}};
  TransformService service(model, opts);
  // Nothing decodes while paused, so the duplicates cannot be served from
  // the cache — they must piggyback on the queued in-flight prompts.
  std::vector<std::future<RowPrediction>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(service.Submit("x", examples).value());
  }
  service.Start();
  for (auto& future : futures) future.get();
  EXPECT_EQ(model->calls(), 3);  // 12 slots, 3 distinct prompts
  EXPECT_EQ(service.stats().dedup_joins, 9u);
}

TEST(ServeServiceTest, BackpressureReturnsTypedUnavailable) {
  ServeOptions opts;
  opts.max_pending_rows = 2;
  opts.start_paused = true;  // hold rows in flight deterministically
  TransformService service(std::make_shared<PatternInductionModel>(), opts);
  const auto examples = NameExamples();
  auto first = service.Submit("Kim Campbell", examples);
  auto second = service.Submit("Brian Mulroney", examples);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  auto rejected = service.Submit("Robert Borden", examples);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  const ServiceStats before = service.stats();
  EXPECT_EQ(before.submitted, 2u);
  EXPECT_EQ(before.rejected, 1u);
  service.Start();
  service.Drain();
  // Capacity freed: the same row is admitted now.
  auto retried = service.Submit("Robert Borden", examples);
  ASSERT_TRUE(retried.ok());
  retried.value().get();
  service.Drain();  // bookkeeping lands after the future is fulfilled
  EXPECT_EQ(service.stats().completed, 3u);
}

TEST(ServeServiceTest, MicroBatchSchedulerCoalescesUpToMaxBatch) {
  auto model = std::make_shared<CountingModel>();
  ServeOptions opts;
  opts.decomposer.num_trials = 5;
  opts.cache.enabled = false;  // count raw batches, no dedup
  opts.start_paused = true;
  BackendQueueOptions queue;
  queue.max_batch = 4;
  opts.backends = {queue};
  TransformService service(model, opts);
  std::vector<std::future<RowPrediction>> futures;
  const auto examples = NameExamples();
  for (const auto& source : NameSources()) {
    futures.push_back(service.Submit(source, examples).value());
  }
  service.Start();
  for (auto& future : futures) future.get();
  const ServiceStats stats = service.stats();
  ASSERT_EQ(stats.backends.size(), 1u);
  // 8 rows x 5 trials = 40 prompts, all queued before Start: exactly
  // ceil(40/4) = 10 full batches.
  EXPECT_EQ(stats.backends[0].prompts, 40u);
  EXPECT_EQ(stats.backends[0].batches, 10u);
  EXPECT_DOUBLE_EQ(stats.backends[0].mean_batch_size, 4.0);
}

TEST(ServeServiceTest, MaxWaitFlushesPartialBatch) {
  auto model = std::make_shared<CountingModel>();
  ServeOptions opts;
  opts.decomposer.num_trials = 2;
  BackendQueueOptions queue;
  queue.max_batch = 1000;  // never fills from one request
  queue.max_wait_ms = 5.0;
  opts.backends = {queue};
  TransformService service(model, opts);
  auto admitted = service.Submit("x", {{"a", "1"}, {"b", "2"}, {"c", "3"}});
  ASSERT_TRUE(admitted.ok());
  // Completes only because the micro-batch window flushes the partial batch.
  EXPECT_EQ(admitted.value().get().source, "x");
}

TEST(ServeServiceTest, CompletionCallbackFires) {
  ServeOptions opts;
  TransformService service(std::make_shared<PatternInductionModel>(), opts);
  std::atomic<int> fired{0};
  std::string seen;
  auto admitted = service.Submit(
      "Kim Campbell", NameExamples(), [&](const RowPrediction& row) {
        seen = row.prediction;
        fired.fetch_add(1);
      });
  ASSERT_TRUE(admitted.ok());
  RowPrediction row = admitted.value().get();
  service.Drain();
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(seen, row.prediction);
}

// Concurrent submitters against a threaded service; TSan (CI) checks the
// queue/cache/latch synchronization, the assertions check completeness.
TEST(ServeServiceTest, ConcurrentSubmittersAllComplete) {
  std::vector<std::shared_ptr<TextToTextModel>> models = {
      std::make_shared<PatternInductionModel>(),
      std::make_shared<KnowledgeLM>()};
  ServeOptions opts;
  opts.num_threads = 4;
  opts.max_pending_rows = 1024;
  BackendQueueOptions queue;
  queue.max_batch = 4;
  queue.max_wait_ms = 1.0;
  opts.backends = {queue, queue};
  TransformService service(models, opts);
  const auto examples = NameExamples();
  const auto sources = NameSources();
  std::atomic<int> completed{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < 12; ++i) {
        auto admitted = service.Submit(
            sources[i % sources.size()], examples,
            [&completed](const RowPrediction&) { completed.fetch_add(1); });
        EXPECT_TRUE(admitted.ok());
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  service.Drain();
  EXPECT_EQ(completed.load(), 4 * 12);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 48u);
  EXPECT_EQ(stats.completed, 48u);
}

TEST(ServeServiceTest, PromptCacheKeyIsUnambiguous) {
  Prompt a;
  a.examples = {{"ab", "c"}};
  a.source = "d";
  Prompt b;
  b.examples = {{"a", "bc"}};
  b.source = "d";
  EXPECT_NE(PromptCacheKey(0, a), PromptCacheKey(0, b));
  EXPECT_NE(PromptCacheKey(0, a), PromptCacheKey(1, a));
  Prompt c = a;
  EXPECT_EQ(PromptCacheKey(0, a), PromptCacheKey(0, c));
}

// The serve-level mmap oracle: a neural model whose weights are bound to an
// mmap'd artifact predicts bit-identically to the saved model itself, both
// served by a plain TransformService.
TEST(ServeServiceTest, ArtifactBoundModelMatchesHeapModel) {
  nn::TransformerConfig cfg;
  cfg.dim = 16;
  cfg.num_heads = 2;
  cfg.ff_hidden = 24;
  cfg.encoder_layers = 1;
  cfg.decoder_layers = 1;
  cfg.max_len = 64;

  testing::ScopedTempDir dir;
  const std::string art = dir.File("model.dttart");
  Rng rng(21);
  auto saved = std::make_shared<nn::Transformer>(cfg, &rng);
  ASSERT_TRUE(io::SaveArtifact(art, saved->Params()).ok());

  NeuralModelOptions neural_opts;
  neural_opts.max_output_tokens = 8;

  ServeOptions serve;
  serve.decomposer.num_trials = 1;
  serve.seed = 777;

  // Heap oracle: the saved model, served directly.
  TransformService heap_service(
      std::make_shared<NeuralSeq2SeqModel>(saved, Serializer(), neural_opts),
      serve);

  // Mmap path: the same weights bound to the artifact. `loaded.artifact`
  // keeps the mapping alive for as long as the service decodes.
  auto loaded =
      io::LoadArtifact(art, cfg, {.verify_payload_checksum = false});
  ASSERT_TRUE(loaded.ok());
  const io::ArtifactModel artifact_model = std::move(loaded).value();
  TransformService mmap_service(
      std::make_shared<NeuralSeq2SeqModel>(artifact_model.model, Serializer(),
                                           neural_opts),
      serve);

  const auto examples = NameExamples();
  const std::vector<std::string> sources = {"Kim Campbell", "Brian Mulroney"};
  for (const auto& source : sources) {
    auto heap_row = heap_service.Submit(source, examples);
    ASSERT_TRUE(heap_row.ok());
    auto mmap_row = mmap_service.Submit(source, examples);
    ASSERT_TRUE(mmap_row.ok());
    EXPECT_EQ(mmap_row.value().get().prediction,
              heap_row.value().get().prediction)
        << source;
  }
}

}  // namespace
}  // namespace serve
}  // namespace dtt
