#include "serve/model_registry.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "io/model_artifact.h"
#include "models/neural_model.h"
#include "models/pattern_induction.h"
#include "testing/temp_dir.h"
#include "text/serializer.h"
#include "util/rng.h"

namespace dtt {
namespace serve {
namespace {

using ::dtt::testing::TempDirTest;

std::vector<ExamplePair> NameExamples() {
  return {{"Justin Trudeau", "jtrudeau"}, {"Stephen Harper", "sharper"},
          {"Paul Martin", "pmartin"},     {"Jean Chretien", "jchretien"},
          {"John Turner", "jturner"},     {"Joe Clark", "jclark"},
          {"Lester Pearson", "lpearson"}};
}

/// A pure model that prefixes its tag, so routed-by-key predictions are
/// attributable to the backend that produced them.
class TagModel : public TextToTextModel {
 public:
  explicit TagModel(std::string tag) : tag_(std::move(tag)) {}
  std::string name() const override { return "tag-" + tag_; }
  Result<std::string> Transform(const Prompt& prompt) override {
    return tag_ + ":" + prompt.source;
  }
  bool thread_safe() const override { return true; }

 private:
  std::string tag_;
};

/// A model whose decodes block until the gate opens — holds rows in flight
/// for as long as a test needs the model pinned.
class GateModel : public TextToTextModel {
 public:
  explicit GateModel(std::shared_future<void> gate) : gate_(std::move(gate)) {}
  std::string name() const override { return "gate"; }
  Result<std::string> Transform(const Prompt& prompt) override {
    gate_.wait();
    return "g:" + prompt.source;
  }
  bool thread_safe() const override { return true; }

 private:
  std::shared_future<void> gate_;
};

BackendLoader CountingLoader(std::atomic<int>* calls, size_t bytes,
                             std::shared_ptr<TextToTextModel> model = nullptr) {
  return [calls, bytes, model]() -> Result<LoadedBackend> {
    calls->fetch_add(1);
    LoadedBackend backend;
    backend.model =
        model ? model : std::make_shared<PatternInductionModel>();
    backend.resident_bytes = bytes;
    return backend;
  };
}

ModelRegistryOptions SmallOptions(size_t cap) {
  ModelRegistryOptions options;
  options.max_resident_bytes = cap;
  options.serve.decomposer.num_trials = 1;
  return options;
}

bool WaitFor(const std::function<bool()>& cond) {
  for (int i = 0; i < 5000; ++i) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return cond();
}

TEST(ModelRegistryTest, SubmitUnknownKeyIsNotFound) {
  ModelRegistry registry(SmallOptions(1 << 20));
  auto submitted = registry.Submit("nope", "src", NameExamples());
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kNotFound);
}

TEST(ModelRegistryTest, RegisterRejectsDuplicatesAndNulls) {
  ModelRegistry registry(SmallOptions(1 << 20));
  std::atomic<int> calls{0};
  ASSERT_TRUE(registry.Register("m", CountingLoader(&calls, 100)).ok());
  EXPECT_EQ(registry.Register("m", CountingLoader(&calls, 100)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Register("other", nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Register("", CountingLoader(&calls, 100)).code(),
            StatusCode::kInvalidArgument);
}

TEST(ModelRegistryTest, LoadsLazilyOnFirstSubmitOnly) {
  ModelRegistry registry(SmallOptions(1 << 20));
  std::atomic<int> calls{0};
  ASSERT_TRUE(registry.Register("m", CountingLoader(&calls, 100)).ok());
  EXPECT_EQ(calls.load(), 0);
  EXPECT_FALSE(registry.resident("m"));

  auto first = registry.Submit("m", "Kim Campbell", NameExamples());
  ASSERT_TRUE(first.ok());
  first.value().get();
  EXPECT_EQ(calls.load(), 1);
  EXPECT_TRUE(registry.resident("m"));

  auto second = registry.Submit("m", "Brian Mulroney", NameExamples());
  ASSERT_TRUE(second.ok());
  second.value().get();
  EXPECT_EQ(calls.load(), 1);  // still one load: the second submit hit

  const auto stats = registry.stats();
  EXPECT_EQ(stats.loads, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.resident_models, 1u);
  EXPECT_EQ(stats.resident_bytes, 100u);
}

TEST(ModelRegistryTest, ConcurrentSubmitsLoadOnce) {
  ModelRegistry registry(SmallOptions(1 << 20));
  std::atomic<int> calls{0};
  ASSERT_TRUE(registry.Register("m", CountingLoader(&calls, 100)).ok());

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::future<RowPrediction>> futures(kThreads);
  std::atomic<int> failures{0};
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      auto submitted =
          registry.Submit("m", "src" + std::to_string(i), NameExamples());
      if (submitted.ok()) {
        futures[static_cast<size_t>(i)] = std::move(submitted.value());
      } else {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  for (auto& f : futures) {
    if (f.valid()) f.get();
  }
  EXPECT_EQ(calls.load(), 1);
}

TEST(ModelRegistryTest, RoutesByKey) {
  ModelRegistry registry(SmallOptions(1 << 20));
  std::atomic<int> calls_a{0};
  std::atomic<int> calls_b{0};
  ASSERT_TRUE(registry
                  .Register("a", CountingLoader(&calls_a, 10,
                                                std::make_shared<TagModel>("A")))
                  .ok());
  ASSERT_TRUE(registry
                  .Register("b", CountingLoader(&calls_b, 10,
                                                std::make_shared<TagModel>("B")))
                  .ok());

  // Key-mixed traffic: every row's prediction carries its backend's tag.
  std::vector<std::pair<std::string, std::future<RowPrediction>>> rows;
  for (int i = 0; i < 10; ++i) {
    const std::string key = (i % 2 == 0) ? "a" : "b";
    auto submitted =
        registry.Submit(key, "row" + std::to_string(i), NameExamples());
    ASSERT_TRUE(submitted.ok());
    rows.emplace_back(key, std::move(submitted.value()));
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    const RowPrediction row = rows[i].second.get();
    const std::string expect_tag = rows[i].first == "a" ? "A:" : "B:";
    EXPECT_EQ(row.prediction.substr(0, 2), expect_tag) << "row " << i;
  }
}

TEST(ModelRegistryTest, EvictsLeastRecentlyUsedColdModelUnderCap) {
  // Cap fits exactly two 100-byte models.
  ModelRegistry registry(SmallOptions(250));
  std::atomic<int> calls_a{0}, calls_b{0}, calls_c{0};
  ASSERT_TRUE(registry.Register("a", CountingLoader(&calls_a, 100)).ok());
  ASSERT_TRUE(registry.Register("b", CountingLoader(&calls_b, 100)).ok());
  ASSERT_TRUE(registry.Register("c", CountingLoader(&calls_c, 100)).ok());

  ASSERT_TRUE(registry.Preload("a").ok());
  ASSERT_TRUE(registry.Preload("b").ok());
  EXPECT_TRUE(registry.resident("a"));
  EXPECT_TRUE(registry.resident("b"));

  // Touch "a" so "b" is the LRU entry, then load "c": "b" must go.
  auto touched = registry.Submit("a", "Kim Campbell", NameExamples());
  ASSERT_TRUE(touched.ok());
  touched.value().get();
  ASSERT_TRUE(WaitFor([&] {
    for (const auto& m : registry.stats().models) {
      if (m.key == "a" && m.inflight == 0) return true;
    }
    return false;
  }));

  ASSERT_TRUE(registry.Preload("c").ok());
  EXPECT_TRUE(registry.resident("a"));
  EXPECT_FALSE(registry.resident("b"));
  EXPECT_TRUE(registry.resident("c"));
  const auto stats = registry.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident_bytes, 200u);
  EXPECT_EQ(stats.resident_models, 2u);

  // The evicted model reloads transparently on its next use.
  ASSERT_TRUE(registry.Preload("b").ok());
  EXPECT_EQ(calls_b.load(), 2);
}

TEST(ModelRegistryTest, PinnedModelSurvivesCapPressureWithTypedBackpressure) {
  // Cap fits one model; "a" is held pinned by a gated in-flight row.
  ModelRegistry registry(SmallOptions(150));
  std::promise<void> gate;
  std::shared_future<void> gate_future = gate.get_future().share();
  std::atomic<int> calls_a{0}, calls_b{0};
  ASSERT_TRUE(registry
                  .Register("a", CountingLoader(
                                     &calls_a, 100,
                                     std::make_shared<GateModel>(gate_future)))
                  .ok());
  ASSERT_TRUE(registry.Register("b", CountingLoader(&calls_b, 100)).ok());

  auto inflight = registry.Submit("a", "Kim Campbell", NameExamples());
  ASSERT_TRUE(inflight.ok());
  ASSERT_TRUE(WaitFor([&] {
    for (const auto& m : registry.stats().models) {
      if (m.key == "a" && m.inflight > 0) return true;
    }
    return false;
  }));

  // "b" cannot fit and "a" is pinned: the NEW load is refused, typed.
  auto rejected = registry.Submit("b", "Brian Mulroney", NameExamples());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(registry.stats().rejected, 1u);

  // The pinned row was never failed: it completes once the gate opens.
  gate.set_value();
  const RowPrediction row = inflight.value().get();
  EXPECT_EQ(row.prediction.substr(0, 2), "g:");

  // Once the pin drains, the same submit evicts "a" and succeeds.
  ASSERT_TRUE(WaitFor([&] {
    for (const auto& m : registry.stats().models) {
      if (m.key == "a" && m.inflight == 0) return true;
    }
    return false;
  }));
  auto accepted = registry.Submit("b", "Brian Mulroney", NameExamples());
  ASSERT_TRUE(accepted.ok());
  accepted.value().get();
  EXPECT_FALSE(registry.resident("a"));
  EXPECT_TRUE(registry.resident("b"));
}

TEST(ModelRegistryTest, EvictApiContract) {
  ModelRegistry registry(SmallOptions(1 << 20));
  std::atomic<int> calls{0};
  ASSERT_TRUE(registry.Register("m", CountingLoader(&calls, 100)).ok());

  EXPECT_EQ(registry.Evict("nope").code(), StatusCode::kNotFound);
  EXPECT_TRUE(registry.Evict("m").ok());  // cold: a no-op

  ASSERT_TRUE(registry.Preload("m").ok());
  EXPECT_TRUE(registry.resident("m"));
  EXPECT_TRUE(registry.Evict("m").ok());
  EXPECT_FALSE(registry.resident("m"));
  EXPECT_EQ(registry.stats().resident_bytes, 0u);
}

TEST(ModelRegistryTest, EvictRefusesWhileRowsInFlight) {
  ModelRegistry registry(SmallOptions(1 << 20));
  std::promise<void> gate;
  std::atomic<int> calls{0};
  ASSERT_TRUE(
      registry
          .Register("m", CountingLoader(&calls, 100,
                                        std::make_shared<GateModel>(
                                            gate.get_future().share())))
          .ok());
  auto inflight = registry.Submit("m", "Kim Campbell", NameExamples());
  ASSERT_TRUE(inflight.ok());
  ASSERT_TRUE(WaitFor([&] {
    for (const auto& m : registry.stats().models) {
      if (m.key == "m" && m.inflight > 0) return true;
    }
    return false;
  }));
  EXPECT_EQ(registry.Evict("m").code(), StatusCode::kFailedPrecondition);
  gate.set_value();
  inflight.value().get();
}

TEST(ModelRegistryTest, LoaderFailurePropagatesAndRetries) {
  ModelRegistry registry(SmallOptions(1 << 20));
  std::atomic<int> calls{0};
  ASSERT_TRUE(registry
                  .Register("m",
                            [&calls]() -> Result<LoadedBackend> {
                              if (calls.fetch_add(1) == 0) {
                                return Status::IOError("transient load error");
                              }
                              LoadedBackend backend;
                              backend.model =
                                  std::make_shared<PatternInductionModel>();
                              backend.resident_bytes = 100;
                              return backend;
                            })
                  .ok());
  auto failed = registry.Submit("m", "Kim Campbell", NameExamples());
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
  EXPECT_FALSE(registry.resident("m"));

  auto retried = registry.Submit("m", "Kim Campbell", NameExamples());
  ASSERT_TRUE(retried.ok());
  retried.value().get();
  EXPECT_TRUE(registry.resident("m"));
  EXPECT_EQ(calls.load(), 2);
}

TEST(ModelRegistryTest, OnCompleteFiresWithThePrediction) {
  ModelRegistry registry(SmallOptions(1 << 20));
  std::atomic<int> calls{0};
  ASSERT_TRUE(registry.Register("m", CountingLoader(&calls, 100)).ok());
  std::promise<std::string> seen;
  auto submitted = registry.Submit(
      "m", "Kim Campbell", NameExamples(),
      [&seen](const RowPrediction& row) { seen.set_value(row.prediction); });
  ASSERT_TRUE(submitted.ok());
  const RowPrediction row = submitted.value().get();
  EXPECT_EQ(seen.get_future().get(), row.prediction);
}

class ModelRegistryParityTest : public TempDirTest {
 protected:
  static nn::TransformerConfig TinyConfig() {
    nn::TransformerConfig cfg;
    cfg.dim = 16;
    cfg.num_heads = 2;
    cfg.ff_hidden = 24;
    cfg.encoder_layers = 1;
    cfg.decoder_layers = 1;
    cfg.max_len = 64;
    return cfg;
  }
};

// The registry-parity bar: a neural model served off an mmap'd artifact
// through the registry predicts bit-identically to the saved model itself
// served from the heap by a plain TransformService.
TEST_F(ModelRegistryParityTest, ArtifactBackedModelMatchesHeapService) {
  const std::string art = TempFile("model.dttart");
  Rng rng(21);
  auto saved = std::make_shared<nn::Transformer>(TinyConfig(), &rng);
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

  // Mmap path: the registry's artifact loader.
  ModelRegistryOptions registry_opts;
  registry_opts.serve = serve;
  ModelRegistry registry(registry_opts);
  ASSERT_TRUE(registry
                  .Register("neural",
                            ArtifactBackendLoader(
                                art, TinyConfig(),
                                [neural_opts](
                                    std::shared_ptr<nn::Transformer> model) {
                                  return std::make_shared<NeuralSeq2SeqModel>(
                                      std::move(model), Serializer(),
                                      neural_opts);
                                }))
                  .ok());

  const auto examples = NameExamples();
  const std::vector<std::string> sources = {"Kim Campbell", "Brian Mulroney"};
  for (const auto& source : sources) {
    auto heap_row = heap_service.Submit(source, examples);
    ASSERT_TRUE(heap_row.ok());
    auto registry_row = registry.Submit("neural", source, examples);
    ASSERT_TRUE(registry_row.ok());
    EXPECT_EQ(registry_row.value().get().prediction,
              heap_row.value().get().prediction)
        << source;
  }
  // The footprint the registry accounts for is the artifact's file size.
  const auto stats = registry.stats();
  ASSERT_EQ(stats.models.size(), 1u);
  EXPECT_GT(stats.models[0].resident_bytes, 0u);
}

}  // namespace
}  // namespace serve
}  // namespace dtt
