// The determinism + long-tail battery for continuous (token-level) batching.
//
// The contract under test: with ContinuousOptions enabled, the neural
// backend's scheduler admits prompts into KV-cache slots freed mid-decode —
// and every request's output stays byte-identical to the retained
// run-to-completion micro-batch path, for every arrival schedule, slot
// count, and thread configuration. The oracle in each test is the same
// service with continuous batching disabled (which serve_service pins to the
// fixed-batch path).
#include "serve/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "models/neural_model.h"
#include "nn/transformer.h"
#include "obs/metrics.h"
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
  return {"Kim Campbell",     "Brian Mulroney",   "Pierre Trudeau",
          "John Diefenbaker", "Louis St Laurent", "Mackenzie King",
          "Arthur Meighen",   "Robert Borden"};
}

/// A tiny randomly-initialized neural backend (greedy): big enough that
/// decodes take many steps, small enough that the battery stays fast.
std::shared_ptr<NeuralSeq2SeqModel> TinyNeuralModel(uint64_t seed,
                                                    int max_output_tokens) {
  nn::TransformerConfig cfg;
  cfg.dim = 16;
  cfg.num_heads = 2;
  cfg.ff_hidden = 32;
  cfg.encoder_layers = 2;
  cfg.decoder_layers = 1;
  cfg.max_len = 128;
  Rng init_rng(seed);
  auto transformer = std::make_shared<nn::Transformer>(cfg, &init_rng);
  SerializerOptions sopts;
  sopts.max_tokens = cfg.max_len;
  NeuralModelOptions nopts;
  nopts.max_output_tokens = max_output_tokens;
  return std::make_shared<NeuralSeq2SeqModel>(transformer, Serializer(sopts),
                                              nopts);
}

struct ScheduleRequest {
  std::string source;
  int max_output_tokens = 0;  // 0 = backend default
  int arrival_jitter_us = 0;  // sleep before submitting (arrival schedule)
};

/// Submits every request in order (sleeping its jitter first) and returns
/// the predictions in submission order.
std::vector<std::string> RunSchedule(TransformService* service,
                                     const std::vector<ScheduleRequest>& reqs,
                                     const std::vector<ExamplePair>& examples) {
  std::vector<std::future<RowPrediction>> futures;
  futures.reserve(reqs.size());
  for (const ScheduleRequest& req : reqs) {
    if (req.arrival_jitter_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(req.arrival_jitter_us));
    }
    SubmitOptions submit;
    submit.max_output_tokens = req.max_output_tokens;
    auto admitted = service->Submit(req.source, examples, submit);
    EXPECT_TRUE(admitted.ok()) << admitted.status().message();
    futures.push_back(std::move(admitted.value()));
  }
  std::vector<std::string> outputs;
  outputs.reserve(futures.size());
  for (auto& future : futures) outputs.push_back(future.get().prediction);
  return outputs;
}

ServeOptions BaseOptions(uint64_t seed) {
  ServeOptions opts;
  opts.decomposer.num_trials = 2;
  opts.seed = seed;
  return opts;
}

// ---------------------------------------------------------------------------
// The core property/stress test: randomized arrival schedules × mixed decode
// budgets × slot counts × thread counts, every one byte-identical to the
// continuous-disabled oracle service.
// ---------------------------------------------------------------------------
TEST(ServeContinuousTest, BitIdenticalToFixedBatchOracleAcrossSchedules) {
  const auto examples = NameExamples();
  const auto sources = NameSources();
  const uint64_t model_seed = 727;
  const uint64_t service_seed = 9001;

  struct Config {
    int max_slots;
    int num_threads;
    bool cache;
  };
  const std::vector<Config> configs = {
      {1, 1, true},   // degenerate: one slot, strictly sequential
      {2, 1, true},   // few slots force admission waits
      {4, 4, true},   // slots + worker threads
      {8, 2, false},  // all slots, no cache
  };
  // >= 3 randomized schedules: budgets and arrival jitter drawn per seed.
  for (const uint64_t schedule_seed : {111u, 222u, 333u}) {
    Rng schedule_rng(schedule_seed);
    std::vector<ScheduleRequest> reqs;
    for (size_t r = 0; r < sources.size(); ++r) {
      ScheduleRequest req;
      req.source = sources[r];
      // Mixed decode lengths: mostly short, some 6x long.
      req.max_output_tokens = schedule_rng.NextBounded(4) == 0 ? 24 : 4;
      req.arrival_jitter_us =
          static_cast<int>(schedule_rng.NextBounded(3)) * 200;
      reqs.push_back(req);
    }

    // Oracle: identical service, continuous disabled (fixed micro-batches).
    std::vector<std::string> oracle;
    {
      auto model = TinyNeuralModel(model_seed, 24);
      ServeOptions opts = BaseOptions(service_seed);
      opts.backends = {{4, 0.0, {}}};
      TransformService service(model, opts);
      oracle = RunSchedule(&service, reqs, examples);
    }
    ASSERT_EQ(oracle.size(), reqs.size());

    for (const Config& config : configs) {
      auto model = TinyNeuralModel(model_seed, 24);
      ServeOptions opts = BaseOptions(service_seed);
      opts.num_threads = config.num_threads;
      opts.cache.enabled = config.cache;
      BackendQueueOptions queue;
      queue.continuous.enabled = true;
      queue.continuous.max_slots = config.max_slots;
      opts.backends = {queue};
      TransformService service(model, opts);
      std::vector<std::string> got = RunSchedule(&service, reqs, examples);
      for (size_t r = 0; r < reqs.size(); ++r) {
        EXPECT_EQ(got[r], oracle[r])
            << "request " << r << " schedule " << schedule_seed << " slots "
            << config.max_slots << " threads " << config.num_threads;
      }
      // The continuous path must actually have served this backend.
      ServiceStats stats = service.stats();
      ASSERT_EQ(stats.backends.size(), 1u);
      EXPECT_TRUE(stats.backends[0].continuous);
      EXPECT_GT(stats.backends[0].cb_admitted, 0u);
      EXPECT_EQ(stats.backends[0].cb_admitted, stats.backends[0].cb_evicted);
      EXPECT_GT(stats.backends[0].cb_steps, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// The seeded adversarial schedule: one long decode holds a slot while short
// requests arrive, forcing (a) admission into a running batch, (b) slot
// reuse after the shorts finish, and (c) eviction of finished sequences,
// their KV rows reused by later admissions — all in one run, still
// byte-identical.
// ---------------------------------------------------------------------------
TEST(ServeContinuousTest, AdversarialScheduleMidDecodeAdmissionAndCompaction) {
  const auto examples = NameExamples();
  const uint64_t model_seed = 901;
  const uint64_t service_seed = 77;

  // The whole schedule is enqueued into a paused service and released at
  // once, so the admission order is deterministic — no wall-clock racing.
  // FIFO then pins the adversarial shape: the first slots go to short
  // decodes (budget 3) with a 48-step decode right behind them, so the
  // shorts finish and free the LOW physical KV rows while the long decode
  // is live above them (forcing eviction + compaction), and the remaining
  // requests admit into the running batch (mid-decode admission, slot
  // reuse) until the queue drains.
  std::vector<ScheduleRequest> reqs;
  reqs.push_back({"Kim Campbell", 3, 0});     // 2 trials: slots 0, 1
  reqs.push_back({"Brian Mulroney", 48, 0});  // 2 trials: slot 2, then later
  for (const char* source : {"Pierre Trudeau", "John Diefenbaker",
                             "Louis St Laurent", "Mackenzie King"}) {
    reqs.push_back({source, 3, 0});
  }

  std::vector<std::string> oracle;
  {
    auto model = TinyNeuralModel(model_seed, 48);
    ServeOptions opts = BaseOptions(service_seed);
    opts.backends = {{4, 0.0, {}}};
    TransformService service(model, opts);
    oracle = RunSchedule(&service, reqs, examples);
  }

  auto model = TinyNeuralModel(model_seed, 48);
  ServeOptions opts = BaseOptions(service_seed);
  opts.start_paused = true;  // enqueue everything, then release at once
  BackendQueueOptions queue;
  queue.continuous.enabled = true;
  queue.continuous.max_slots = 3;  // 12 prompts over 3 slots: forced reuse
  opts.backends = {queue};
  TransformService service(model, opts);
  std::vector<std::future<RowPrediction>> futures;
  for (const ScheduleRequest& req : reqs) {
    SubmitOptions submit;
    submit.max_output_tokens = req.max_output_tokens;
    auto admitted = service.Submit(req.source, examples, submit);
    ASSERT_TRUE(admitted.ok());
    futures.push_back(std::move(admitted.value()));
  }
  service.Start();
  std::vector<std::string> got;
  for (auto& future : futures) got.push_back(future.get().prediction);
  service.Drain();

  for (size_t r = 0; r < reqs.size(); ++r) {
    EXPECT_EQ(got[r], oracle[r]) << "request " << r;
  }
  ServiceStats stats = service.stats();
  ASSERT_EQ(stats.backends.size(), 1u);
  EXPECT_TRUE(stats.backends[0].continuous);
  const uint64_t prompts =
      static_cast<uint64_t>(reqs.size()) * 2;  // num_trials = 2
  EXPECT_EQ(stats.backends[0].cb_admitted, prompts);
  EXPECT_EQ(stats.backends[0].cb_evicted, prompts);
  // More admission groups than one => prompts joined a running batch.
  EXPECT_GE(stats.backends[0].cb_admit_groups, 2u);
}

// ---------------------------------------------------------------------------
// Routing: only backends that expose a TokenStreamDecoder take the
// continuous path; simulated/beam backends silently keep micro-batching even
// when opted in, and the mixed service stays bit-identical to the oracle.
// ---------------------------------------------------------------------------

/// A pure, thread-safe simulated model (no token-level decode loop).
class EchoModel : public TextToTextModel {
 public:
  std::string name() const override { return "echo"; }
  Result<std::string> Transform(const Prompt& prompt) override {
    return "echo:" + prompt.source;
  }
  bool thread_safe() const override { return true; }
};

TEST(ServeContinuousTest, SimulatedBackendKeepsMicroBatching) {
  const auto examples = NameExamples();
  const auto sources = NameSources();
  std::vector<std::shared_ptr<TextToTextModel>> models = {
      TinyNeuralModel(321, 12), std::make_shared<EchoModel>()};

  std::vector<ScheduleRequest> reqs;
  for (const std::string& source : sources) reqs.push_back({source, 0, 0});

  std::vector<std::string> oracle;
  {
    std::vector<std::shared_ptr<TextToTextModel>> oracle_models = {
        TinyNeuralModel(321, 12), std::make_shared<EchoModel>()};
    TransformService service(oracle_models, BaseOptions(55));
    oracle = RunSchedule(&service, reqs, examples);
  }

  ServeOptions opts = BaseOptions(55);
  BackendQueueOptions continuous_queue;
  continuous_queue.continuous.enabled = true;
  continuous_queue.continuous.max_slots = 4;
  opts.backends = {continuous_queue, continuous_queue};  // both opt in
  TransformService service(models, opts);
  std::vector<std::string> got = RunSchedule(&service, reqs, examples);
  for (size_t r = 0; r < reqs.size(); ++r) {
    EXPECT_EQ(got[r], oracle[r]) << "request " << r;
  }
  ServiceStats stats = service.stats();
  ASSERT_EQ(stats.backends.size(), 2u);
  EXPECT_TRUE(stats.backends[0].continuous);   // neural: token-level
  EXPECT_FALSE(stats.backends[1].continuous);  // simulated: micro-batch
  EXPECT_GT(stats.backends[1].batches, 0u);
}

TEST(ServeContinuousTest, BeamBackendFallsBackToMicroBatching) {
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
  nopts.beam_size = 2;  // beam pruning is not prefix-stable: no decoder
  auto model = std::make_shared<NeuralSeq2SeqModel>(
      transformer, Serializer(sopts), nopts);

  ServeOptions opts = BaseOptions(66);
  BackendQueueOptions queue;
  queue.continuous.enabled = true;
  opts.backends = {queue};
  TransformService service(model, opts);
  auto admitted = service.Submit("Kim Campbell", NameExamples());
  ASSERT_TRUE(admitted.ok());
  admitted.value().get();
  ServiceStats stats = service.stats();
  EXPECT_FALSE(stats.backends[0].continuous);
  EXPECT_GT(stats.backends[0].batches, 0u);
}

// ---------------------------------------------------------------------------
// The cache/dedup machinery is shared with the micro-batch path: a repeated
// row's prompts must be served from the cache, not re-admitted.
// ---------------------------------------------------------------------------
TEST(ServeContinuousTest, CacheServesRepeatedRowsWithoutReadmission) {
  auto model = TinyNeuralModel(808, 10);
  ServeOptions opts;
  opts.seed = 88;
  // 3 examples, k=2 -> all C(3,2)=3 contexts enumerated per request: a
  // repeated source reproduces its exact prompts, so the repeat must be
  // served entirely from the result cache.
  opts.decomposer.context_size = 2;
  opts.decomposer.num_trials = 5;
  const std::vector<ExamplePair> examples = {{"a", "1"}, {"b", "2"}, {"c", "3"}};
  BackendQueueOptions queue;
  queue.continuous.enabled = true;
  queue.continuous.max_slots = 4;
  opts.backends = {queue};
  TransformService service(model, opts);

  auto first = service.Submit("x", examples).value().get();
  const uint64_t admitted_cold = service.stats().backends[0].cb_admitted;
  EXPECT_EQ(admitted_cold, 3u);  // one decode per enumerated context
  auto second = service.Submit("x", examples).value().get();
  EXPECT_EQ(first.prediction, second.prediction);
  // The repeat decoded nothing: every prompt hit the result cache.
  EXPECT_EQ(service.stats().backends[0].cb_admitted, admitted_cold);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.hits, 3u);
}

// ---------------------------------------------------------------------------
// Admission bound: an admission group is the FIFO prefix of prepared
// prompts, cut only at the free slots.
// ---------------------------------------------------------------------------

/// Holds the first decode step until released, and records what was
/// admitted, so a test can read the batcher's gauges with the admission
/// group resident. It also keeps a logical clock: `steps` counts finished
/// Step() calls, and each admitted prompt (in admission order) records the
/// clock when it was admitted and when the step that finished it returned.
struct StepGate {
  std::mutex mu;
  std::condition_variable cv;
  bool stepping = false;
  bool released = false;
  std::vector<PreparedPrompt> admitted;
  int steps = 0;
  std::vector<int> admit_step;
  std::vector<int> finish_step;  // -1 while resident
  std::map<int, size_t> resident;  // slot -> index into admitted
};

class GatedDecoder : public TokenStreamDecoder {
 public:
  GatedDecoder(std::unique_ptr<TokenStreamDecoder> inner, StepGate* gate)
      : inner_(std::move(inner)), gate_(gate) {}

  Result<PreparedPrompt> Prepare(const Prompt& prompt) const override {
    return inner_->Prepare(prompt);
  }
  std::vector<int> Admit(const std::vector<PreparedPrompt>& group) override {
    std::vector<int> slots = inner_->Admit(group);
    std::lock_guard<std::mutex> lock(gate_->mu);
    for (size_t i = 0; i < group.size(); ++i) {
      gate_->resident[slots[i]] = gate_->admitted.size();
      gate_->admitted.push_back(group[i]);
      gate_->admit_step.push_back(gate_->steps);
      gate_->finish_step.push_back(-1);
    }
    return slots;
  }
  std::vector<Finished> Step() override {
    std::unique_lock<std::mutex> lock(gate_->mu);
    gate_->stepping = true;
    gate_->cv.notify_all();
    gate_->cv.wait(lock, [this] { return gate_->released; });
    lock.unlock();
    std::vector<Finished> finished = inner_->Step();
    lock.lock();
    ++gate_->steps;
    for (const Finished& fin : finished) {
      gate_->finish_step[gate_->resident.at(fin.slot)] = gate_->steps;
      gate_->resident.erase(fin.slot);
    }
    return finished;
  }
  void Cancel(int slot) override { inner_->Cancel(slot); }
  int max_slots() const override { return inner_->max_slots(); }
  int active_slots() const override { return inner_->active_slots(); }

 private:
  std::unique_ptr<TokenStreamDecoder> inner_;
  StepGate* gate_;
};

class GatedModel : public TextToTextModel {
 public:
  GatedModel(std::shared_ptr<NeuralSeq2SeqModel> inner, StepGate* gate)
      : inner_(std::move(inner)), gate_(gate) {}

  std::string name() const override { return inner_->name(); }
  Result<std::string> Transform(const Prompt& prompt) override {
    return inner_->Transform(prompt);
  }
  bool thread_safe() const override { return inner_->thread_safe(); }
  std::unique_ptr<TokenStreamDecoder> NewStreamDecoder(
      const StreamDecoderOptions& options) override {
    return std::make_unique<GatedDecoder>(inner_->NewStreamDecoder(options),
                                          gate_);
  }

 private:
  std::shared_ptr<NeuralSeq2SeqModel> inner_;
  StepGate* gate_;
};

TEST(ServeContinuousTest, FreeSlotsBoundTheAdmissionGroup) {
  StepGate gate;
  auto model = std::make_shared<GatedModel>(TinyNeuralModel(404, 8), &gate);
  ServeOptions opts = BaseOptions(33);
  opts.decomposer.num_trials = 1;
  opts.start_paused = true;  // all three rows queue before the first admit
  BackendQueueOptions queue;
  queue.continuous.enabled = true;
  queue.continuous.max_slots = 2;
  opts.backends = {queue};
  TransformService service(model, opts);
  std::vector<std::future<RowPrediction>> futures;
  for (const char* source : {"Kim Campbell", "Louis St Laurent",
                             "Arthur Meighen"}) {
    auto admitted = service.Submit(source, NameExamples());
    ASSERT_TRUE(admitted.ok());
    futures.push_back(std::move(admitted.value()));
  }
  service.Start();

  size_t admitted = 0;
  {
    std::unique_lock<std::mutex> lock(gate.mu);
    gate.cv.wait(lock, [&gate] { return gate.stepping; });
    admitted = gate.admitted.size();
  }
  const int64_t active =
      obs::GlobalMetrics().GetGauge("serve.cb.slots_active")->Value();
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    gate.released = true;
  }
  gate.cv.notify_all();
  service.Drain();

  EXPECT_EQ(admitted, 2u);
  EXPECT_EQ(active, 2);
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    future.get();
  }
  EXPECT_EQ(obs::GlobalMetrics().GetGauge("serve.cb.slots_active")->Value(),
            0);
}

// ---------------------------------------------------------------------------
// Where Prepare runs: with a worker pool the encoder pass leaves the decode
// scheduler thread, admission stays FIFO, and at most max_slots prompts are
// prepared ahead of admission; without a pool everything stays on the one
// scheduler thread.
// ---------------------------------------------------------------------------

/// Records the threads that run Prepare and Admit/Step, the prompts prepared
/// (or preparing) but not yet admitted, and the admission order by source.
/// Optionally holds every Prepare until released, and delays the Prepare of
/// one source so later arrivals finish preparing first.
struct PrepareProbe {
  std::mutex mu;
  std::condition_variable cv;
  bool hold = false;
  std::string slow_source;
  int preparing = 0;  // inside Prepare right now
  int ahead = 0;      // Prepare started, not yet admitted
  int max_ahead = 0;
  std::set<std::thread::id> prepare_threads;
  std::set<std::thread::id> scheduler_threads;  // Admit and Step callers
  std::map<std::vector<int>, std::string> source_of;
  std::vector<std::string> admitted;  // sources, in admission order
};

class ProbeDecoder : public TokenStreamDecoder {
 public:
  ProbeDecoder(std::unique_ptr<TokenStreamDecoder> inner, PrepareProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  Result<PreparedPrompt> Prepare(const Prompt& prompt) const override {
    {
      std::unique_lock<std::mutex> lock(probe_->mu);
      probe_->prepare_threads.insert(std::this_thread::get_id());
      probe_->max_ahead = std::max(probe_->max_ahead, ++probe_->ahead);
      ++probe_->preparing;
      probe_->cv.notify_all();
      probe_->cv.wait(lock, [this] { return !probe_->hold; });
    }
    if (prompt.source == probe_->slow_source) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    Result<PreparedPrompt> prepared = inner_->Prepare(prompt);
    std::lock_guard<std::mutex> lock(probe_->mu);
    --probe_->preparing;
    if (prepared.ok()) {
      probe_->source_of[prepared.value().input_ids] = prompt.source;
    } else {
      --probe_->ahead;  // never admitted
    }
    return prepared;
  }
  std::vector<int> Admit(const std::vector<PreparedPrompt>& group) override {
    {
      std::lock_guard<std::mutex> lock(probe_->mu);
      probe_->scheduler_threads.insert(std::this_thread::get_id());
      for (const PreparedPrompt& prepared : group) {
        probe_->admitted.push_back(probe_->source_of[prepared.input_ids]);
      }
      probe_->ahead -= static_cast<int>(group.size());
    }
    return inner_->Admit(group);
  }
  std::vector<Finished> Step() override {
    {
      std::lock_guard<std::mutex> lock(probe_->mu);
      probe_->scheduler_threads.insert(std::this_thread::get_id());
    }
    return inner_->Step();
  }
  void Cancel(int slot) override { inner_->Cancel(slot); }
  int max_slots() const override { return inner_->max_slots(); }
  int active_slots() const override { return inner_->active_slots(); }

 private:
  std::unique_ptr<TokenStreamDecoder> inner_;
  PrepareProbe* probe_;
};

class ProbeModel : public TextToTextModel {
 public:
  ProbeModel(std::shared_ptr<NeuralSeq2SeqModel> inner, PrepareProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::string name() const override { return inner_->name(); }
  Result<std::string> Transform(const Prompt& prompt) override {
    return inner_->Transform(prompt);
  }
  bool thread_safe() const override { return inner_->thread_safe(); }
  std::unique_ptr<TokenStreamDecoder> NewStreamDecoder(
      const StreamDecoderOptions& options) override {
    return std::make_unique<ProbeDecoder>(inner_->NewStreamDecoder(options),
                                          probe_);
  }

 private:
  std::shared_ptr<NeuralSeq2SeqModel> inner_;
  PrepareProbe* probe_;
};

/// One distinct-row burst through a probed continuous backend with
/// `max_slots` slots, submitted paused so the whole burst queues at once.
/// Returns the sources in submission order.
std::vector<std::string> RunProbedBurst(PrepareProbe* probe, int num_threads,
                                        int max_slots, int rows) {
  auto model = std::make_shared<ProbeModel>(TinyNeuralModel(515, 6), probe);
  ServeOptions opts = BaseOptions(55);
  opts.decomposer.num_trials = 1;
  opts.cache.enabled = false;
  opts.num_threads = num_threads;
  opts.start_paused = true;
  BackendQueueOptions queue;
  queue.continuous.enabled = true;
  queue.continuous.max_slots = max_slots;
  opts.backends = {queue};
  TransformService service(model, opts);
  std::vector<std::string> sources;
  std::vector<std::future<RowPrediction>> futures;
  for (int r = 0; r < rows; ++r) {
    sources.push_back("row-" + std::to_string(r));
    auto admitted = service.Submit(sources.back(), NameExamples());
    EXPECT_TRUE(admitted.ok());
    futures.push_back(std::move(admitted.value()));
  }
  service.Start();
  for (auto& future : futures) future.get();
  return sources;
}

TEST(ServeContinuousTest, PoolPreparesOffSchedulerThreadInArrivalOrder) {
  PrepareProbe probe;
  probe.slow_source = "row-0";  // the head finishes preparing last
  const std::vector<std::string> sources =
      RunProbedBurst(&probe, /*num_threads=*/2, /*max_slots=*/3, 12);
  ASSERT_EQ(probe.scheduler_threads.size(), 1u);
  const std::thread::id scheduler = *probe.scheduler_threads.begin();
  EXPECT_FALSE(probe.prepare_threads.empty());
  EXPECT_EQ(probe.prepare_threads.count(scheduler), 0u)
      << "Prepare ran on the decode scheduler thread";
  EXPECT_EQ(probe.admitted, sources);
  EXPECT_GE(probe.max_ahead, 1);
  EXPECT_LE(probe.max_ahead, 3);
  EXPECT_EQ(probe.ahead, 0);
}

TEST(ServeContinuousTest, InlinePreparesStayOnSchedulerThread) {
  PrepareProbe probe;
  const std::vector<std::string> sources =
      RunProbedBurst(&probe, /*num_threads=*/1, /*max_slots=*/2, 8);
  ASSERT_EQ(probe.scheduler_threads.size(), 1u);
  EXPECT_EQ(probe.prepare_threads, probe.scheduler_threads);
  EXPECT_EQ(probe.admitted, sources);
  EXPECT_LE(probe.max_ahead, 2);
  EXPECT_EQ(probe.ahead, 0);
}

// Destroying a service while Prepare calls are blocked on the pool, with
// more queued behind them: the destructor drains, so every accepted row
// resolves exactly once and nothing is left charged to the batcher.
TEST(ServeContinuousTest, DestroyWithPreparesQueuedOnPool) {
  PrepareProbe probe;
  probe.hold = true;
  auto model = std::make_shared<ProbeModel>(TinyNeuralModel(616, 6), &probe);
  ServeOptions opts = BaseOptions(66);
  opts.decomposer.num_trials = 1;
  opts.cache.enabled = false;
  opts.num_threads = 2;
  BackendQueueOptions queue;
  queue.continuous.enabled = true;
  queue.continuous.max_slots = 4;
  opts.backends = {queue};
  auto service = std::make_unique<TransformService>(model, opts);

  const int kRows = 8;
  std::vector<std::atomic<int>> completions(kRows);
  std::vector<std::future<RowPrediction>> futures;
  for (int r = 0; r < kRows; ++r) {
    auto admitted = service->Submit(
        "row-" + std::to_string(r), NameExamples(),
        [&completions, r](const RowPrediction&) {
          completions[static_cast<size_t>(r)].fetch_add(1);
        });
    ASSERT_TRUE(admitted.ok());
    futures.push_back(std::move(admitted.value()));
  }
  {
    // Both workers blocked inside Prepare; the other launched prepares wait
    // in the pool's queue. On a timeout, release the hold so the service
    // can still drain before the test fails.
    std::unique_lock<std::mutex> lock(probe.mu);
    const bool blocked =
        probe.cv.wait_for(lock, std::chrono::seconds(10),
                          [&probe] { return probe.preparing == 2; });
    if (!blocked) {
      probe.hold = false;
      probe.cv.notify_all();
    }
    ASSERT_TRUE(blocked) << "prepares did not reach both pool workers";
  }
  // The destructor blocks in its drain until the held prepares finish.
  std::thread destroyer([&service] { service.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::lock_guard<std::mutex> lock(probe.mu);
    EXPECT_EQ(probe.preparing, 2);
    probe.hold = false;
  }
  probe.cv.notify_all();
  // join() returning means the destructor's drain saw zero pending rows.
  destroyer.join();

  for (int r = 0; r < kRows; ++r) {
    ASSERT_EQ(futures[static_cast<size_t>(r)].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    futures[static_cast<size_t>(r)].get();
    EXPECT_EQ(completions[static_cast<size_t>(r)].load(), 1) << "row " << r;
  }
  EXPECT_LE(probe.max_ahead, 4);
  EXPECT_EQ(probe.ahead, 0);
  EXPECT_EQ(probe.admitted.size(), static_cast<size_t>(kRows));
  EXPECT_EQ(obs::GlobalMetrics().GetGauge("serve.cb.slots_active")->Value(),
            0);
}

// Invalid prompts (over-length serialization) fail identically on both
// paths: the Transform-path error policy turns them into abstentions.
TEST(ServeContinuousTest, OverLengthPromptAbstainsLikeOracle) {
  const std::vector<ExamplePair> examples = {
      {std::string(200, 'x'), std::string(200, 'y')}};
  const std::string source(200, 'z');

  auto run = [&](bool continuous) {
    auto model = TinyNeuralModel(99, 8);
    ServeOptions opts = BaseOptions(44);
    // Row-budget enforcement off: the serialized prompt genuinely exceeds
    // max_len and must be refused by the model layer.
    BackendQueueOptions queue;
    queue.continuous.enabled = continuous;
    opts.backends = {queue};
    TransformService service(model, opts);
    return service.Submit(source, examples).value().get();
  };
  RowPrediction fixed = run(false);
  RowPrediction cont = run(true);
  EXPECT_EQ(cont.prediction, fixed.prediction);
  EXPECT_EQ(cont.support, fixed.support);
}

// ---------------------------------------------------------------------------
// The long-tail property on a logical clock: under continuous batching a
// short request finishes within its own decode budget plus the decode steps
// it waited for a free slot, whatever the budget of a long request resident
// beside it. Decode steps, not milliseconds, so the assertion is exact and
// independent of the host's scheduler; the wall-clock view of the same
// property is perfbench's short_latency_p99_ms.
// ---------------------------------------------------------------------------

/// Admission and finish steps of one long request and `kShorts` short ones
/// queued behind it while its first step is held, on a 2-slot batcher with
/// inline prepares (so every scheduling decision is a function of the queue
/// and the decode lengths alone). Index 0 is the long request.
struct LongTailTimeline {
  std::vector<int> admit_step;
  std::vector<int> finish_step;
};

LongTailTimeline RunLongTail(int long_budget, int short_budget, int shorts) {
  StepGate gate;
  auto model = std::make_shared<GatedModel>(TinyNeuralModel(606, 64), &gate);
  ServeOptions opts = BaseOptions(1234);
  opts.decomposer.num_trials = 1;
  opts.cache.enabled = false;  // every request decodes
  opts.start_paused = true;    // the long request is admitted alone
  BackendQueueOptions queue;
  queue.continuous.enabled = true;
  queue.continuous.max_slots = 2;
  opts.backends = {queue};
  TransformService service(model, opts);
  std::vector<std::future<RowPrediction>> futures;
  auto submit = [&](const std::string& source, int budget) {
    SubmitOptions submit_options;
    submit_options.max_output_tokens = budget;
    auto admitted = service.Submit(source, NameExamples(), submit_options);
    EXPECT_TRUE(admitted.ok());
    if (admitted.ok()) futures.push_back(std::move(admitted.value()));
  };
  submit("Louis St Laurent", long_budget);
  service.Start();
  {
    // The long request is resident and its first step is held: every
    // short arrives while it decodes.
    std::unique_lock<std::mutex> lock(gate.mu);
    gate.cv.wait(lock, [&gate] { return gate.stepping; });
  }
  for (int r = 0; r < shorts; ++r) {
    submit("row-" + std::to_string(r), short_budget);
  }
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    gate.released = true;
  }
  gate.cv.notify_all();
  for (auto& future : futures) future.get();
  service.Drain();
  std::lock_guard<std::mutex> lock(gate.mu);
  return {gate.admit_step, gate.finish_step};
}

TEST(ServeContinuousTest, ShortRequestsFinishWithinBudgetPlusSlotWait) {
  constexpr int kShorts = 5;
  constexpr int kShortBudget = 4;
  std::vector<LongTailTimeline> runs;
  for (const int long_budget : {32, 64}) {
    SCOPED_TRACE("long budget " + std::to_string(long_budget));
    runs.push_back(RunLongTail(long_budget, kShortBudget, kShorts));
    const LongTailTimeline& t = runs.back();
    ASSERT_EQ(t.admit_step.size(), static_cast<size_t>(kShorts + 1));
    // The long request is admitted alone at step 0 and decodes its whole
    // budget.
    EXPECT_EQ(t.admit_step[0], 0);
    EXPECT_EQ(t.finish_step[0], long_budget);
    for (int r = 1; r <= kShorts; ++r) {
      SCOPED_TRACE("short " + std::to_string(r));
      // Its own budget: resident for at most kShortBudget steps.
      const int decode_steps = t.finish_step[r] - t.admit_step[r];
      EXPECT_GE(decode_steps, 1);
      EXPECT_LE(decode_steps, kShortBudget);
      // Its slot wait: the first short takes the free slot at the first
      // step boundary after it arrived (the held step 1); each later one
      // takes the slot the moment the short ahead of it releases it. The
      // long request's budget appears nowhere.
      EXPECT_EQ(t.admit_step[r], r == 1 ? 1 : t.finish_step[r - 1]);
    }
    // So every short finished while the long request was still decoding.
    EXPECT_LT(t.finish_step[kShorts], t.finish_step[0]);
  }
  // And so the shorts' timeline is the same whatever the long budget is.
  for (int r = 1; r <= kShorts; ++r) {
    EXPECT_EQ(runs[0].admit_step[r], runs[1].admit_step[r]) << "short " << r;
    EXPECT_EQ(runs[0].finish_step[r], runs[1].finish_step[r]) << "short " << r;
  }
}

}  // namespace
}  // namespace serve
}  // namespace dtt
