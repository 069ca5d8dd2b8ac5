// The two serving workloads. Each runs an open-loop phase at a fixed offered
// rate (latency timed from every request's due time) and a
// closed-loop capacity phase over a fixed request list on a second service
// that starts with an empty cache; the two phases alternate in segments.
// Every served row is checked against DttPipeline::TransformAllFixedBatch on
// the same row and models.
//
//   stream_longtail: one neural greedy backend with continuous batching
//     (8 slots), cache off; distinct WT rows, 95% with a 24-token budget and
//     5% with a 120-token budget.
//   serve_mixed: dtt + neural_greedy (micro-batched) + neural_beam4, cache
//     on, 2 ms micro-batch window; 8 tenant tables with 3 fixed examples;
//     30% of requests ask for a new row, the rest repeat Zipf-skewed rows.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "core/pipeline.h"
#include "eval/experiment.h"
#include "serve/service.h"
#include "util/rng.h"
#include "workload_common.h"

namespace perfbench {

namespace {

using dtt::serve::TransformService;

/// Unmeasured open-loop traffic before the latency window opens.
constexpr double kWarmupSeconds = 0.5;
/// --seconds is split between the phases: the open loop runs for this share
/// of it, and the capacity phase's fixed request list is sized to take the
/// rest at the workload's nominal capacity on a 4-thread x86 host.
constexpr double kOpenLoopShare = 0.5;
/// The open loop and the capacity list are cut into this many segments that
/// alternate, so both phases sample the whole run rather than one stretch of
/// it (host speed drifts over seconds on shared machines).
constexpr int kSegments = 4;
/// The generator sleeps until this long before a request is due and spins
/// the rest, so scheduler wake-up overshoot does not land in the latencies.
constexpr auto kSpinBeforeDue = std::chrono::microseconds(200);

struct ServingRow {
  size_t tenant = 0;
  std::string source;
};

struct Request {
  size_t row = 0;
  int budget = 0;  // SubmitOptions::max_output_tokens; 0 = backend default
};

/// The fixed knobs of one serving workload.
struct ServingParams {
  double rate = 0.0;                 // open-loop offered rows/s
  double capacity_rows_per_s = 0.0;  // sizes the capacity phase's list
  int concurrency = 0;               // capacity-phase requests in flight
  int short_budget = 0;              // budget of the short class; 0 = all
};

/// A ready-to-serve workload instance: inputs, models, services, references.
struct ServingSetup {
  std::vector<std::vector<dtt::ExamplePair>> examples;  // per tenant
  std::vector<ServingRow> rows;
  std::vector<Request> warmup;
  std::vector<Request> open;
  std::vector<Request> capacity;
  dtt::io::ArtifactModel artifact;
  double load_artifact_ms = 0.0;
  /// Reference pipelines over the bare models, by request budget.
  std::map<int, std::unique_ptr<dtt::DttPipeline>> references;
  std::unique_ptr<TransformService> open_service;
  std::unique_ptr<TransformService> capacity_service;
};

size_t PhaseCount(double rows_per_s, double seconds) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::llround(rows_per_s * seconds)));
}

void LoadBenchModel(const RunConfig& config, const char* artifact,
                    ServingSetup* s) {
  const std::string path =
      (std::filesystem::path(config.workdir) / artifact).string();
  auto loaded = WriteAndLoadBenchModel(path, &s->load_artifact_ms);
  if (!loaded.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 loaded.status().ToString().c_str());
    std::exit(2);
  }
  s->artifact = std::move(loaded).value();
}

// --------------------------------------------------------------------------
// stream_longtail

constexpr ServingParams kLongtail{/*rate=*/110.0, /*capacity=*/195.0,
                                  /*concurrency=*/16, /*short_budget=*/24};
constexpr int kLongBudget = 120;
constexpr int kLongtailBlock = 20;  // one long request per block of 20

ServingSetup BuildLongtail(const RunConfig& config, SpanLog* log,
                           const char* artifact) {
  ServingSetup s;
  const dtt::Dataset corpus = MakeWtCorpus(config.seed, /*row_scale=*/2.0);
  for (const dtt::TablePair& table : corpus.tables) {
    const size_t tenant = s.examples.size();
    s.examples.push_back({{table.source[0], table.target[0]},
                          {table.source[1], table.target[1]}});
    for (size_t r = 2; r < table.num_rows(); ++r) {
      s.rows.push_back({tenant, table.source[r]});
    }
  }
  dtt::Rng rng = dtt::Rng(config.seed).Fork(dtt::Rng::HashString("longtail"));
  rng.Shuffle(&s.rows);

  // Distinct rows in a seeded order; exactly one long budget per block.
  size_t next_row = 0;
  size_t long_slot = 0;
  auto make = [&](size_t n, std::vector<Request>* out) {
    for (size_t i = 0; i < n; ++i, ++next_row) {
      if (next_row % kLongtailBlock == 0) {
        long_slot = rng.NextBounded(kLongtailBlock);
      }
      const bool is_long = next_row % kLongtailBlock == long_slot;
      out->push_back({next_row % s.rows.size(),
                      is_long ? kLongBudget : kLongtail.short_budget});
    }
  };
  make(PhaseCount(kLongtail.rate, kWarmupSeconds), &s.warmup);
  make(PhaseCount(kLongtail.rate, kOpenLoopShare * config.seconds), &s.open);
  make(PhaseCount(kLongtail.capacity_rows_per_s,
                  (1.0 - kOpenLoopShare) * config.seconds),
       &s.capacity);

  LoadBenchModel(config, artifact, &s);
  dtt::PipelineOptions reference;
  reference.decomposer.context_size = 2;
  reference.decomposer.num_trials = 1;
  reference.batch_size = 8;
  reference.num_threads = kReferenceWorkers;
  for (int budget : {kLongtail.short_budget, kLongBudget}) {
    s.references[budget] = std::make_unique<dtt::DttPipeline>(
        MakeNeuralModel(s.artifact.model, budget, 1), reference);
  }

  dtt::serve::ServeOptions options;
  options.seed = config.seed;
  options.num_threads = kWorkers;
  options.decomposer = reference.decomposer;
  options.cache.enabled = false;
  options.max_pending_rows = 1 << 20;
  dtt::serve::BackendQueueOptions queue;
  queue.max_batch = 8;
  queue.continuous.enabled = true;
  queue.continuous.max_slots = 8;
  options.backends = {queue};
  const auto served = MaybeTimed(
      MakeNeuralModel(s.artifact.model, kLongBudget, 1),
      Backend::kNeuralGreedy, log);
  s.open_service = std::make_unique<TransformService>(served, options);
  s.capacity_service = std::make_unique<TransformService>(served, options);
  return s;
}

// --------------------------------------------------------------------------
// serve_mixed

constexpr ServingParams kMixed{/*rate=*/100.0, /*capacity=*/205.0,
                               /*concurrency=*/16, /*short_budget=*/0};
constexpr int kMixedTenants = 8;  // WT tables 0..7: eight fixed topics
constexpr int kMixedExamples = 3;
/// Every block of 10 requests holds exactly 3 rows new to the stream; the
/// other 7 repeat rows it has already asked for.
constexpr int kMixedBlock = 10;
constexpr int kMixedNewPerBlock = 3;
constexpr double kMixedZipf = 1.0;
constexpr int kMixedNeuralBudget = 8;

/// A request stream with a constant share of rows it has not asked for
/// before (the cache's compulsory misses), so the miss rate is the same from
/// the first second to the last and from seed to seed. Tenants rotate in a
/// seeded order; a repeat draws one of the tenant's rows already asked for,
/// Zipf-skewed by first-seen rank (the oldest rows are the hottest).
std::vector<Request> MixedStream(size_t n,
                                 const std::vector<std::vector<size_t>>& pools,
                                 dtt::Rng* rng) {
  std::vector<std::vector<size_t>> seen(pools.size());
  std::vector<size_t> order(pools.size());
  for (size_t t = 0; t < order.size(); ++t) order[t] = t;
  std::vector<char> is_new(kMixedBlock, 0);
  std::vector<double> zipf;
  std::vector<Request> out;
  for (size_t i = 0; i < n; ++i) {
    if (i % kMixedBlock == 0) {
      std::fill(is_new.begin(), is_new.end(), 0);
      std::fill(is_new.begin(), is_new.begin() + kMixedNewPerBlock, 1);
      rng->Shuffle(&is_new);
    }
    if (i % order.size() == 0) rng->Shuffle(&order);
    const size_t t = order[i % order.size()];
    const std::vector<size_t>& pool = pools[t];
    if (is_new[i % kMixedBlock] || seen[t].empty()) {
      seen[t].push_back(pool[seen[t].size() % pool.size()]);
      out.push_back({seen[t].back(), 0});
      continue;
    }
    while (zipf.size() < seen[t].size()) {
      zipf.push_back(
          1.0 / std::pow(static_cast<double>(zipf.size() + 1), kMixedZipf));
    }
    const std::vector<double> weights(zipf.begin(),
                                      zipf.begin() + seen[t].size());
    out.push_back({seen[t][rng->NextWeighted(weights)], 0});
  }
  return out;
}

ServingSetup BuildMixed(const RunConfig& config, SpanLog* log,
                        const char* artifact) {
  ServingSetup s;
  const dtt::Dataset corpus = MakeWtCorpus(config.seed, /*row_scale=*/2.0);
  dtt::Rng rng = dtt::Rng(config.seed).Fork(dtt::Rng::HashString("mixed"));

  // Per tenant: 3 fixed examples and its other rows in a seeded order.
  std::vector<std::vector<size_t>> pools;
  for (int t = 0; t < kMixedTenants; ++t) {
    const dtt::TablePair& table = corpus.tables[t];
    std::vector<dtt::ExamplePair> examples;
    for (int e = 0; e < kMixedExamples; ++e) {
      examples.push_back({table.source[e], table.target[e]});
    }
    s.examples.push_back(std::move(examples));
    std::vector<size_t> pool;
    for (size_t r = kMixedExamples; r < table.num_rows(); ++r) {
      pool.push_back(s.rows.size());
      s.rows.push_back({static_cast<size_t>(t), table.source[r]});
    }
    rng.Shuffle(&pool);
    pools.push_back(std::move(pool));
  }
  // Warm-up and open loop form one stream on one service; the capacity
  // service starts empty, so its list is a stream of its own.
  std::vector<Request> stream = MixedStream(
      PhaseCount(kMixed.rate, kWarmupSeconds + kOpenLoopShare * config.seconds),
      pools, &rng);
  const size_t warm = PhaseCount(kMixed.rate, kWarmupSeconds);
  s.warmup.assign(stream.begin(), stream.begin() + warm);
  s.open.assign(stream.begin() + warm, stream.end());
  s.capacity = MixedStream(
      PhaseCount(kMixed.capacity_rows_per_s,
                 (1.0 - kOpenLoopShare) * config.seconds),
      pools, &rng);

  LoadBenchModel(config, artifact, &s);
  const std::vector<std::shared_ptr<dtt::TextToTextModel>> bare = {
      dtt::MakeDttModel(),
      MakeNeuralModel(s.artifact.model, kMixedNeuralBudget, 1),
      MakeNeuralModel(s.artifact.model, kMixedNeuralBudget, 4)};
  const Backend labels[] = {Backend::kDtt, Backend::kNeuralGreedy,
                            Backend::kNeuralBeam4};

  dtt::PipelineOptions reference;
  reference.decomposer.context_size = 2;
  reference.decomposer.num_trials = 3;  // C(3,2) = 3: contexts enumerated
  reference.batch_size = 8;
  reference.num_threads = kReferenceWorkers;
  s.references[0] = std::make_unique<dtt::DttPipeline>(bare, reference);

  dtt::serve::ServeOptions options;
  options.seed = config.seed;
  options.num_threads = kWorkers;
  options.decomposer = reference.decomposer;
  options.max_pending_rows = 1 << 20;
  dtt::serve::BackendQueueOptions queue;
  queue.max_wait_ms = 2.0;
  options.backends.assign(bare.size(), queue);
  std::vector<std::shared_ptr<dtt::TextToTextModel>> served;
  for (size_t m = 0; m < bare.size(); ++m) {
    served.push_back(MaybeTimed(bare[m], labels[m], log));
  }
  s.open_service = std::make_unique<TransformService>(served, options);
  s.capacity_service = std::make_unique<TransformService>(served, options);
  return s;
}

// --------------------------------------------------------------------------
// The shared load generator

struct PhaseOutputs {
  std::vector<std::future<dtt::RowPrediction>> futures;
  uint64_t rejected = 0;
};

bool Submit(const ServingSetup& s, TransformService* service,
            const Request& request, SpanLog* log,
            std::function<void(const dtt::RowPrediction&)> on_complete,
            PhaseOutputs* out) {
  ScopedSpan span(log, SpanKind::kSubmit);
  const ServingRow& row = s.rows[request.row];
  dtt::serve::SubmitOptions submit;
  submit.max_output_tokens = request.budget;
  auto admitted = service->Submit(row.source, s.examples[row.tenant], submit,
                                  std::move(on_complete));
  if (!admitted.ok()) {
    ++out->rejected;
    out->futures.emplace_back();  // keeps indices aligned; never valid
    return false;
  }
  out->futures.push_back(std::move(admitted).value());
  return true;
}

/// Open loop over requests[begin, end): request i is due at
/// t0 + (i - begin) / rate whatever happened before; its latency runs from
/// that due time to its completion callback, into (*latency_ms)[i].
void RunOpenLoop(const ServingSetup& s, const std::vector<Request>& requests,
                 size_t begin, size_t end, double rate, SpanLog* log,
                 std::vector<double>* latency_ms, std::vector<double>* lag_ms,
                 PhaseOutputs* out) {
  const Clock::time_point t0 = Clock::now();
  const std::chrono::duration<double> gap(1.0 / rate);
  for (size_t i = begin; i < end; ++i) {
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 gap * static_cast<double>(i - begin));
    if (due - Clock::now() > kSpinBeforeDue) {
      std::this_thread::sleep_until(due - kSpinBeforeDue);
    }
    while (Clock::now() < due) {
    }
    lag_ms->push_back(MillisBetween(due, Clock::now()));
    double* slot = &(*latency_ms)[i];
    Submit(s, s.open_service.get(), requests[i], log,
           [slot, due](const dtt::RowPrediction&) {
             *slot = MillisBetween(due, Clock::now());
           },
           out);
  }
  s.open_service->Drain();
}

/// Closed loop over s.capacity[begin, end) on the capacity service:
/// `concurrency` requests in flight; each completion lets the generator send
/// the next one. Request i's latency, from Submit to its completion
/// callback, goes to (*latency_ms)[i]. Returns the seconds it took.
double RunClosedLoop(const ServingSetup& s, size_t begin, size_t end,
                     int concurrency, SpanLog* log,
                     std::vector<double>* latency_ms, PhaseOutputs* out) {
  std::mutex mu;
  std::condition_variable cv;
  int in_flight = 0;
  const Clock::time_point t0 = Clock::now();
  for (size_t i = begin; i < end; ++i) {
    const Request& request = s.capacity[i];
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return in_flight < concurrency; });
      ++in_flight;
    }
    double* slot = &(*latency_ms)[i];
    const Clock::time_point sent = Clock::now();
    const bool accepted = Submit(
        s, s.capacity_service.get(), request, log,
        [&mu, &cv, &in_flight, slot, sent](const dtt::RowPrediction&) {
          *slot = MillisBetween(sent, Clock::now());
          {
            std::lock_guard<std::mutex> lock(mu);
            --in_flight;
          }
          cv.notify_one();
        },
        out);
    if (!accepted) {
      std::lock_guard<std::mutex> lock(mu);
      --in_flight;
    }
  }
  s.capacity_service->Drain();
  return MillisBetween(t0, Clock::now()) / 1e3;
}

/// Reference predictions for every distinct (row, budget) served, through
/// the fixed-batch path of the same models. Contexts are enumerated (never
/// sampled), so a row's prompts do not depend on its position.
std::map<std::pair<size_t, int>, std::string> ReferencePredictions(
    const ServingSetup& s) {
  std::map<std::pair<size_t, int>, std::vector<size_t>> groups;  // by tenant
  std::map<std::pair<size_t, int>, std::string> expected;
  for (const auto* phase : {&s.warmup, &s.open, &s.capacity}) {
    for (const Request& r : *phase) {
      if (expected.emplace(std::make_pair(r.row, r.budget), "").second) {
        groups[{s.rows[r.row].tenant, r.budget}].push_back(r.row);
      }
    }
  }
  for (const auto& [key, rows] : groups) {
    const auto& [tenant, budget] = key;
    std::vector<std::string> sources;
    for (size_t row : rows) sources.push_back(s.rows[row].source);
    dtt::Rng rng(tenant);
    std::vector<dtt::RowPrediction> preds =
        s.references.at(budget)->TransformAllFixedBatch(
            sources, s.examples[tenant], &rng);
    for (size_t i = 0; i < rows.size(); ++i) {
      expected[{rows[i], budget}] = preds[i].prediction;
    }
  }
  return expected;
}

WorkloadResult RunServing(
    const RunConfig& config, SpanLog* log, const ServingParams& params,
    const std::function<ServingSetup(const RunConfig&, SpanLog*,
                                     const char*)>& build) {
  WorkloadResult result;

  // Throwaway set-ups map an artifact file of their own: the serving
  // instance's mapping must never see its file rewritten.
  std::vector<double> setup_s;
  const auto throwaway = [&] {
    return build(config, log, "setup_model.dttart");
  };
  TimeSetups(kSetupReps / 3 - 1, throwaway, &setup_s);
  const Clock::time_point setup_start = Clock::now();
  const ServingSetup s = build(config, log, "bench_model.dttart");
  setup_s.push_back(MillisBetween(setup_start, Clock::now()) / 1e3);

  const dtt::obs::MetricsSnapshot before = dtt::obs::GlobalMetrics().Snapshot();
  const Clock::time_point t0 = Clock::now();
  std::vector<double> warm_latency(s.warmup.size(), -1.0);
  std::vector<double> open_latency(s.open.size(), -1.0);
  std::vector<double> cap_latency(s.capacity.size(), -1.0);
  std::vector<double> lag_ms;
  PhaseOutputs warm_out, open_out, cap_out;
  RunOpenLoop(s, s.warmup, 0, s.warmup.size(), params.rate, log,
              &warm_latency, &lag_ms, &warm_out);
  double capacity_seconds = 0.0;
  for (int k = 0; k < kSegments; ++k) {
    auto cut = [k](size_t n) { return n * static_cast<size_t>(k) / kSegments; };
    auto cut_end = [k](size_t n) {
      return n * static_cast<size_t>(k + 1) / kSegments;
    };
    RunOpenLoop(s, s.open, cut(s.open.size()), cut_end(s.open.size()),
                params.rate, log, &open_latency, &lag_ms, &open_out);
    capacity_seconds += RunClosedLoop(s, cut(s.capacity.size()),
                                      cut_end(s.capacity.size()),
                                      params.concurrency, log, &cap_latency,
                                      &cap_out);
  }
  const double capacity =
      static_cast<double>(s.capacity.size()) / capacity_seconds;
  const Clock::time_point t1 = Clock::now();
  const dtt::obs::MetricsSnapshot after = dtt::obs::GlobalMetrics().Snapshot();
  const double peak_rss_mb = PeakRssMb();
  TimeSetups(kSetupReps / 3, throwaway, &setup_s);

  // Outputs against the fixed-batch reference, row by row.
  const Clock::time_point ref_start = Clock::now();
  const auto expected = config.verify
                            ? ReferencePredictions(s)
                            : std::map<std::pair<size_t, int>, std::string>{};
  const double ref_seconds = MillisBetween(ref_start, Clock::now()) / 1e3;
  TimeSetups(kSetupReps - static_cast<int>(setup_s.size()), throwaway,
             &setup_s);
  uint64_t errored = 0, mismatched = 0;
  Digest digest;
  auto check = [&](const std::vector<Request>& requests, PhaseOutputs* out) {
    for (size_t i = 0; i < requests.size(); ++i) {
      ++result.attempted;
      std::future<dtt::RowPrediction>& f = out->futures[i];
      if (!f.valid()) continue;  // rejected, counted already
      std::string prediction;
      try {
        prediction = f.get().prediction;
      } catch (const std::exception&) {
        ++errored;
        continue;
      }
      digest.Add(prediction);
      if (config.verify &&
          prediction != expected.at({requests[i].row, requests[i].budget})) {
        ++mismatched;
      }
    }
  };
  check(s.warmup, &warm_out);
  check(s.open, &open_out);
  check(s.capacity, &cap_out);
  const uint64_t rejected =
      warm_out.rejected + open_out.rejected + cap_out.rejected;
  result.failed = rejected + errored + mismatched;
  result.correct = mismatched == 0 && errored == 0;
  result.digest = digest.Hex();

  // Latencies of the rows not rejected, all and the short class.
  auto classes = [&params](const std::vector<Request>& requests,
                           const std::vector<double>& latency_ms) {
    std::pair<std::vector<double>, std::vector<double>> out;
    for (size_t i = 0; i < requests.size(); ++i) {
      if (latency_ms[i] < 0.0) continue;
      out.first.push_back(latency_ms[i]);
      if (params.short_budget == 0 ||
          requests[i].budget == params.short_budget) {
        out.second.push_back(latency_ms[i]);
      }
    }
    return out;
  };
  const auto [open_all, open_short] = classes(s.open, open_latency);
  const auto [cap_all, cap_short] = classes(s.capacity, cap_latency);
  // The generator fell behind when more than 1% of requests went out later
  // than one inter-arrival gap past their due time.
  const double lag_p99 = Percentile(lag_ms, 0.99);
  const double max_lag_ms = 1e3 / params.rate;
  result.valid = lag_p99 <= max_lag_ms;
  result.rows_per_s = capacity;

  char line[256];
  std::snprintf(line, sizeof(line),
                "open loop: %zu requests at %.1f rows/s after %zu warm-up; "
                "capacity: %zu requests, %d in flight, own service (%.2f s); "
                "%d alternating segments",
                s.open.size(), params.rate, s.warmup.size(),
                s.capacity.size(), params.concurrency, capacity_seconds,
                kSegments);
  result.notes.push_back(line);
  std::snprintf(line, sizeof(line), "limit %.1f ms: %s", max_lag_ms,
                result.valid ? "generator kept its schedule"
                             : "INVALID: generator fell behind");
  result.printed.push_back(
      {"open_loop.gen_lag_ms.p99", "ms", lag_p99, lag_ms.size(), line});
  AddLatencyMetrics("open_loop.latency", open_all, /*with_p50=*/true,
                    &result.printed);
  AddLatencyMetrics("open_loop.short_latency", open_short,
                    /*with_p50=*/false, &result.printed);
  std::snprintf(line, sizeof(line),
                "outputs: %llu rejected, %llu errored, %llu mismatched vs "
                "TransformAllFixedBatch (%zu distinct rows, %.2f s)%s",
                static_cast<unsigned long long>(rejected),
                static_cast<unsigned long long>(errored),
                static_cast<unsigned long long>(mismatched), expected.size(),
                ref_seconds, config.verify ? "" : " [not verified]");
  result.notes.push_back(line);

  result.end_to_end.push_back(
      {"setup_s", "s", Median(setup_s), setup_s.size(), ""});
  result.end_to_end.push_back(
      {"rows_per_s", "1/s", capacity, s.capacity.size(), "closed loop"});
  AddLatencyMetrics("latency", cap_all, /*with_p50=*/true,
                    &result.end_to_end);
  AddLatencyMetrics("short_latency", cap_short, /*with_p50=*/false,
                    &result.end_to_end);
  result.end_to_end.push_back(
      {"peak_rss_mb", "MB", peak_rss_mb, 1, "ru_maxrss after the last phase"});

  if (log != nullptr) {
    LayerInputs in;
    in.spans = log->spans();
    in.before = before;
    in.after = after;
    in.t0 = t0;
    in.t1 = t1;
    in.load_artifact_ms = s.load_artifact_ms;
    result.per_layer = LayerMetrics(in);
    result.spans = std::move(in.spans);
  }
  return result;
}

}  // namespace

WorkloadResult RunStreamLongtail(const RunConfig& config, SpanLog* log) {
  return RunServing(config, log, kLongtail, BuildLongtail);
}

WorkloadResult RunServeMixed(const RunConfig& config, SpanLog* log) {
  return RunServing(config, log, kMixed, BuildMixed);
}

}  // namespace perfbench
