// Load generator for the transformation-serving subsystem (src/serve/).
// Legs (a)-(d) share one workload: a fast simulated backend (pattern
// induction) plus a slow neural backend, with a skewed request stream
// (every distinct row requested several times) so the dedup cache sees
// serving-shaped traffic.
//  (a) the fixed-batch offline path (TransformAllFixedBatch) as the
//      baseline — one shared pool, fixed batches, no cache;
//  (b) closed-loop serving: the same request stream through a
//      TransformService with per-backend micro-batch queues and the
//      prompt-dedup LRU cache, predictions asserted bit-identical to (a);
//  (c) open-loop serving: requests submitted at a fixed arrival rate with
//      per-request latency stamped in the completion callback — reports
//      p50/p95/p99 latency and achieved rows/sec;
//  (d) admission backpressure: a flood against a tiny queue bound, counting
//      typed Unavailable rejections;
//  (e) artifact cold load: one neural model written as a DTTART1 file and
//      loaded back as a heap copy and as an mmap bind, weights asserted
//      bit-identical between the two;
//  (f) continuous vs fixed batching on a long-tail open-loop mix (95%
//      short / 5% long decodes) against one neural backend, predictions
//      asserted identical closed-loop first.
// Every number also lands in the bench JSON document (CI uploads it as a
// workflow artifact). DTT_EXP_SERVE_QUICK=1 shrinks the streams for smoke
// runs.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "core/pipeline.h"
#include "eval/report.h"
#include "io/model_artifact.h"
#include "models/neural_model.h"
#include "models/pattern_induction.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "text/vocab.h"
#include "util/stopwatch.h"

namespace dtt {
namespace {

constexpr uint64_t kSeed = 20247;

std::string RandomSource(Rng* rng) {
  static constexpr char kAlpha[] = "abcdefghijklmnopqrstuvwxyz";
  std::string s;
  const int n = static_cast<int>(rng->NextInt(8, 12));
  for (int i = 0; i < n; ++i) {
    s.push_back(i == n / 2 ? '-' : kAlpha[rng->NextBounded(26)]);
  }
  return s;
}

std::shared_ptr<NeuralSeq2SeqModel> MakeSlowBackend() {
  nn::TransformerConfig cfg;
  cfg.dim = 32;
  cfg.num_heads = 2;
  cfg.ff_hidden = 64;
  cfg.encoder_layers = 1;
  cfg.decoder_layers = 1;
  cfg.max_len = 128;
  Rng init_rng(kSeed);
  auto transformer = std::make_shared<nn::Transformer>(cfg, &init_rng);
  SerializerOptions sopts;
  sopts.max_tokens = cfg.max_len;
  NeuralModelOptions nopts;
  nopts.max_output_tokens = 10;
  return std::make_shared<NeuralSeq2SeqModel>(transformer, Serializer(sopts),
                                              nopts);
}

serve::ServeOptions ServiceOptions(uint64_t seed, size_t max_pending) {
  serve::ServeOptions sopts;
  sopts.seed = seed;
  sopts.num_threads = 2;
  serve::BackendQueueOptions fast_q;
  fast_q.max_batch = 16;
  serve::BackendQueueOptions slow_q;
  slow_q.max_batch = 8;
  sopts.backends = {fast_q, slow_q};
  sopts.max_pending_rows = max_pending;
  return sopts;
}

int Main() {
  const bool quick = std::getenv("DTT_EXP_SERVE_QUICK") != nullptr;
  const int num_distinct = quick ? 8 : 16;
  const int num_requests = quick ? 32 : 96;

  std::printf("DTT serving bench — dynamic micro-batching + dedup cache%s\n",
              quick ? " (quick)" : "");
  bench::BenchJsonReporter report("exp_serve");
  report.meta()
      .Set("seed", static_cast<int64_t>(kSeed))
      .Set("quick", quick)
      .Set("distinct_rows", num_distinct)
      .Set("requests", num_requests);

  // The two-backend pipeline: fast simulated + slow neural.
  auto fast = std::make_shared<PatternInductionModel>();
  auto slow = MakeSlowBackend();
  std::vector<std::shared_ptr<TextToTextModel>> models = {fast, slow};

  // Workload: 3 examples (C(3,2)=2-subsets are fully enumerated, so a
  // repeated source row reproduces its exact prompts — serving-shaped
  // dedup), distinct rows drawn once, requests sampled with repetition.
  Rng data_rng(kSeed + 1);
  std::vector<ExamplePair> examples;
  for (int i = 0; i < 3; ++i) {
    std::string src = RandomSource(&data_rng);
    examples.push_back({src, src.substr(src.find('-') + 1)});
  }
  std::vector<std::string> distinct;
  for (int i = 0; i < num_distinct; ++i) {
    distinct.push_back(RandomSource(&data_rng));
  }
  std::vector<std::string> requests;
  for (int i = 0; i < num_requests; ++i) {
    requests.push_back(distinct[data_rng.NextBounded(distinct.size())]);
  }

  PipelineOptions popts;
  popts.batch_size = 8;
  popts.num_threads = 2;
  DttPipeline pipeline(models, popts);

  // (a) The PR 2 fixed-batch path on the full request stream.
  PrintBanner("(a) fixed-batch offline baseline (PR 2 path)");
  double fixed_rows_per_sec = 0.0;
  std::vector<RowPrediction> fixed_rows;
  {
    Rng rng(kSeed + 2);
    Stopwatch timer;
    fixed_rows = pipeline.TransformAllFixedBatch(requests, examples, &rng);
    const double seconds = timer.Seconds();
    fixed_rows_per_sec = static_cast<double>(fixed_rows.size()) / seconds;
    std::printf("%zu rows in %.3f s -> %.2f rows/s\n", fixed_rows.size(),
                seconds, fixed_rows_per_sec);
    report.AddRun("fixed_batch")
        .Set("seconds", seconds)
        .Set("rows", static_cast<int64_t>(fixed_rows.size()))
        .Set("rows_per_sec", fixed_rows_per_sec)
        .Set("batch_size", popts.batch_size)
        .Set("num_threads", popts.num_threads);
  }

  // (b) Closed loop through the service: submit everything, start, drain.
  PrintBanner("(b) service closed loop (micro-batching + dedup cache)");
  double service_rows_per_sec = 0.0;
  {
    Rng rng(kSeed + 2);
    serve::ServeOptions sopts =
        ServiceOptions(rng.Next(), requests.size());
    sopts.start_paused = true;
    serve::TransformService service(models, sopts);
    Stopwatch timer;
    std::vector<std::future<RowPrediction>> futures;
    for (const std::string& source : requests) {
      futures.push_back(service.Submit(source, examples).value());
    }
    service.Start();
    std::vector<RowPrediction> rows;
    for (auto& f : futures) rows.push_back(f.get());
    const double seconds = timer.Seconds();
    service_rows_per_sec = static_cast<double>(rows.size()) / seconds;

    size_t mismatches = 0;
    for (size_t r = 0; r < rows.size(); ++r) {
      if (rows[r].prediction != fixed_rows[r].prediction) ++mismatches;
    }
    const serve::ServiceStats stats = service.stats();
    const double speedup = fixed_rows_per_sec > 0.0
                               ? service_rows_per_sec / fixed_rows_per_sec
                               : 0.0;
    std::printf(
        "%zu rows in %.3f s -> %.2f rows/s (%.2fx vs fixed batch), "
        "%zu prediction mismatches\n",
        rows.size(), seconds, service_rows_per_sec, speedup, mismatches);
    std::printf("cache: %llu hits / %llu misses (rate %.2f), dedup joins "
                "%llu\n",
                static_cast<unsigned long long>(stats.cache.hits),
                static_cast<unsigned long long>(stats.cache.misses),
                stats.cache.HitRate(),
                static_cast<unsigned long long>(stats.dedup_joins));
    TablePrinter table({"backend", "batches", "prompts", "mean batch"});
    for (const auto& backend : stats.backends) {
      table.AddRow({backend.name, std::to_string(backend.batches),
                    std::to_string(backend.prompts),
                    TablePrinter::Num(backend.mean_batch_size, 2)});
    }
    table.Print();
    report.AddRun("service_closed")
        .Set("seconds", seconds)
        .Set("rows", static_cast<int64_t>(rows.size()))
        .Set("rows_per_sec", service_rows_per_sec)
        .Set("speedup_vs_fixed", speedup)
        .Set("cache_hits", static_cast<int64_t>(stats.cache.hits))
        .Set("cache_misses", static_cast<int64_t>(stats.cache.misses))
        .Set("cache_hit_rate", stats.cache.HitRate())
        .Set("dedup_joins", static_cast<int64_t>(stats.dedup_joins))
        .Set("prediction_mismatches", static_cast<int64_t>(mismatches));
    if (mismatches != 0) {
      std::fprintf(stderr,
                   "FAIL: service predictions diverge from the fixed-batch "
                   "path\n");
      return 1;
    }
  }

  // (c) Open loop: fixed arrival rate at ~75% of closed-loop throughput,
  // latency stamped by the completion callback.
  PrintBanner("(c) service open loop (fixed arrival rate)");
  {
    const double offered =
        std::max(1.0, 0.75 * service_rows_per_sec);  // rows/sec
    Rng rng(kSeed + 2);
    serve::ServeOptions sopts =
        ServiceOptions(rng.Next(), requests.size());
    // Serving posture: a 2 ms micro-batch window per backend lets trickling
    // arrivals coalesce instead of decoding one by one.
    for (auto& backend : sopts.backends) backend.max_wait_ms = 2.0;
    serve::TransformService service(models, sopts);

    // Latency sink: a lock-free log-scale histogram (obs/metrics.h) the
    // completion callbacks record into concurrently — no mutex, no vector,
    // and the quantiles come from the snapshot API (exact-rank semantics,
    // within one bucket's ~19% relative width of the sorted-vector values;
    // asserted against exact percentiles by ObsMetricsTest).
    obs::Histogram latency_ms;
    const auto t0 = std::chrono::steady_clock::now();
    const std::chrono::duration<double> gap(1.0 / offered);
    Stopwatch timer;
    for (size_t i = 0; i < requests.size(); ++i) {
      const auto target = t0 + std::chrono::duration_cast<
                                   std::chrono::steady_clock::duration>(
                                   gap * static_cast<double>(i));
      std::this_thread::sleep_until(target);
      const auto submitted = std::chrono::steady_clock::now();
      auto admitted = service.Submit(
          requests[i], examples,
          [submitted, &latency_ms](const RowPrediction&) {
            const std::chrono::duration<double, std::milli> elapsed =
                std::chrono::steady_clock::now() - submitted;
            latency_ms.Record(elapsed.count());
          });
      if (!admitted.ok()) {
        // Queue bound covers the stream; shouldn't happen at this rate.
        std::fprintf(stderr, "unexpected rejection: %s\n",
                     admitted.status().message().c_str());
      }
    }
    service.Drain();
    const double seconds = timer.Seconds();
    const obs::HistogramSnapshot lat = latency_ms.Snapshot();
    const double achieved = static_cast<double>(lat.count) / seconds;
    const double p50 = lat.Percentile(0.50);
    const double p95 = lat.Percentile(0.95);
    const double p99 = lat.Percentile(0.99);
    const serve::ServiceStats stats = service.stats();
    std::printf(
        "offered %.1f rows/s, achieved %.1f rows/s; latency p50 %.2f ms, "
        "p95 %.2f ms, p99 %.2f ms (cache rate %.2f)\n",
        offered, achieved, p50, p95, p99, stats.cache.HitRate());
    report.AddRun("service_open")
        .Set("offered_rows_per_sec", offered)
        .Set("achieved_rows_per_sec", achieved)
        .Set("seconds", seconds)
        .Set("latency_p50_ms", p50)
        .Set("latency_p95_ms", p95)
        .Set("latency_p99_ms", p99)
        .Set("cache_hit_rate", stats.cache.HitRate());
  }

  // (d) Backpressure: flood a tiny admission queue, count typed rejections.
  PrintBanner("(d) admission backpressure");
  {
    Rng rng(kSeed + 2);
    serve::ServeOptions sopts = ServiceOptions(rng.Next(), /*max_pending=*/4);
    sopts.start_paused = true;  // nothing completes while we flood
    serve::TransformService service(models, sopts);
    size_t accepted = 0;
    size_t rejected = 0;
    std::vector<std::future<RowPrediction>> futures;
    for (const std::string& source : requests) {
      auto admitted = service.Submit(source, examples);
      if (admitted.ok()) {
        futures.push_back(std::move(admitted).value());
        ++accepted;
      } else if (admitted.status().code() == StatusCode::kUnavailable) {
        ++rejected;
      }
    }
    service.Start();
    for (auto& f : futures) f.get();
    std::printf("flood of %zu: accepted %zu, rejected %zu (Unavailable)\n",
                requests.size(), accepted, rejected);
    report.AddRun("backpressure")
        .Set("flood", static_cast<int64_t>(requests.size()))
        .Set("accepted", static_cast<int64_t>(accepted))
        .Set("rejected", static_cast<int64_t>(rejected));
  }

  // (e) Artifact cold load: one neural model saved as a .dttart file and
  // loaded back both ways — heap copy (LoadArtifactParams, payload checksum
  // verified) vs mmap bind (LoadArtifact, verification off) — reporting the
  // latency of each with bit-identity of the weights asserted. The artifact
  // lands in DTT_ARTIFACT_DIR when set (CI uploads it), a temp dir
  // otherwise.
  PrintBanner("(e) artifact cold load (heap copy vs mmap bind)");
  {
    namespace fs = std::filesystem;
    const char* env_dir = std::getenv("DTT_ARTIFACT_DIR");
    const fs::path dir = env_dir != nullptr
                             ? fs::path(env_dir)
                             : fs::temp_directory_path() / "dtt_exp_serve";
    std::error_code ec;
    fs::create_directories(dir, ec);

    nn::TransformerConfig cfg;
    cfg.dim = 64;
    cfg.num_heads = 4;
    cfg.ff_hidden = 128;
    cfg.encoder_layers = 2;
    cfg.decoder_layers = 1;
    cfg.max_len = 128;
    const std::string artifact = (dir / "model0.dttart").string();
    {
      Rng init_rng(kSeed + 10);
      nn::Transformer model(cfg, &init_rng);
      if (!io::SaveArtifact(artifact, model.Params()).ok()) {
        std::fprintf(stderr, "FAIL: artifact setup\n");
        return 1;
      }
    }

    // Cold-load latency, best of 5 each; first iteration doubles as the
    // bit-identity check between the two storage modes.
    double heap_ms = 1e30;
    double mmap_ms = 1e30;
    size_t parity_mismatches = 0;
    for (int iter = 0; iter < 5; ++iter) {
      Stopwatch heap_timer;
      Rng heap_rng(1);
      nn::Transformer heap_model(cfg, &heap_rng);
      auto heap_params = heap_model.Params();
      if (!io::LoadArtifactParams(artifact, &heap_params).ok()) {
        std::fprintf(stderr, "FAIL: heap cold load\n");
        return 1;
      }
      heap_ms = std::min(heap_ms, heap_timer.Seconds() * 1e3);

      Stopwatch mmap_timer;
      auto loaded = io::LoadArtifact(artifact, cfg,
                                     {.verify_payload_checksum = false});
      if (!loaded.ok()) {
        std::fprintf(stderr, "FAIL: mmap cold load\n");
        return 1;
      }
      mmap_ms = std::min(mmap_ms, mmap_timer.Seconds() * 1e3);

      if (iter == 0) {
        auto mmap_params = loaded.value().model->Params();
        for (size_t i = 0; i < heap_params.size(); ++i) {
          const nn::Tensor& a = heap_params[i].var.value();
          const nn::Tensor& b = mmap_params[i].var.value();
          if (a.shape() != b.shape() ||
              std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
            ++parity_mismatches;
          }
        }
      }
    }
    const double cold_speedup = mmap_ms > 0.0 ? heap_ms / mmap_ms : 0.0;
    std::printf(
        "cold load: heap %.3f ms, mmap %.3f ms (%.2fx), %zu parameter "
        "mismatches\n",
        heap_ms, mmap_ms, cold_speedup, parity_mismatches);
    report.AddRun("artifact_cold_load")
        .Set("heap_ms", heap_ms)
        .Set("mmap_ms", mmap_ms)
        .Set("speedup", cold_speedup)
        .Set("parity_mismatches", static_cast<int64_t>(parity_mismatches));
    if (parity_mismatches != 0) {
      std::fprintf(stderr,
                   "FAIL: mmap-bound weights diverge from the heap "
                   "copy\n");
      return 1;
    }
  }

  // (f) Continuous token-level batching vs fixed micro-batching on a
  // long-tail open-loop mix: 95% short decodes, 5% ten-times-longer ones,
  // against a single slow neural backend. The fixed path convoys shorts
  // behind whichever long decode shares (or precedes) their batch; the
  // continuous path admits them into the running batch and retires them in
  // a few steps. Bit-identity is asserted closed-loop first, then both
  // paths are measured at the same offered rate.
  PrintBanner("(f) continuous batching long-tail (95% short / 5% long)");
  {
    const int tail_requests = quick ? 40 : 120;
    constexpr int kShortBudget = 8;
    constexpr int kLongBudget = 80;  // 10x the short decode
    auto is_long = [](int i) { return i % 20 == 19; };  // 5% of the stream

    // The EOS logit is suppressed so every decode runs to its token budget:
    // the leg measures scheduling under a controlled 95/5 length mix, not
    // the tiny random model's organic (and short) decode lengths.
    auto make_tail_model = [&] {
      nn::TransformerConfig cfg;
      cfg.dim = 32;
      cfg.num_heads = 2;
      cfg.ff_hidden = 64;
      cfg.encoder_layers = 1;
      cfg.decoder_layers = 1;
      cfg.max_len = 128;
      Rng init_rng(kSeed + 50);
      auto transformer = std::make_shared<nn::Transformer>(cfg, &init_rng);
      for (auto& p : transformer->Params()) {
        if (p.name == "model.lm_head.bias") {
          p.var.mutable_value().data()[Vocab::kEos] -= 1e4f;
        }
      }
      SerializerOptions sopts;
      sopts.max_tokens = cfg.max_len;
      NeuralModelOptions nopts;
      nopts.max_output_tokens = kShortBudget;
      return std::make_shared<NeuralSeq2SeqModel>(transformer,
                                                  Serializer(sopts), nopts);
    };

    std::vector<std::string> tail_sources;
    for (int i = 0; i < tail_requests; ++i) {
      tail_sources.push_back("tail-" + std::to_string(i));  // nothing dedups
    }

    auto tail_options = [&](bool continuous, uint64_t seed) {
      serve::ServeOptions sopts;
      sopts.seed = seed;
      sopts.num_threads = 2;
      sopts.decomposer.num_trials = 1;
      sopts.cache.enabled = false;  // every request decodes
      sopts.max_pending_rows = tail_sources.size();
      serve::BackendQueueOptions queue;
      queue.max_batch = 8;
      queue.continuous.enabled = continuous;
      queue.continuous.max_slots = 8;
      sopts.backends = {queue};
      return sopts;
    };

    // Closed loop, both paths: the determinism contract (per-request outputs
    // byte-identical to the retained fixed-batch path) plus the fixed
    // throughput that anchors the open-loop offered rate.
    std::vector<std::string> fixed_preds;
    double tail_fixed_rows_per_sec = 0.0;
    size_t tail_mismatches = 0;
    for (const bool continuous : {false, true}) {
      Rng rng(kSeed + 60);
      serve::ServeOptions sopts = tail_options(continuous, rng.Next());
      sopts.start_paused = true;
      serve::TransformService service(make_tail_model(), sopts);
      Stopwatch timer;
      std::vector<std::future<RowPrediction>> futures;
      for (int i = 0; i < tail_requests; ++i) {
        serve::SubmitOptions submit;
        submit.max_output_tokens = is_long(i) ? kLongBudget : kShortBudget;
        futures.push_back(
            service.Submit(tail_sources[static_cast<size_t>(i)], examples,
                           submit)
                .value());
      }
      service.Start();
      std::vector<std::string> preds;
      for (auto& f : futures) preds.push_back(f.get().prediction);
      const double seconds = timer.Seconds();
      if (!continuous) {
        fixed_preds = std::move(preds);
        tail_fixed_rows_per_sec =
            static_cast<double>(tail_requests) / seconds;
      } else {
        for (size_t r = 0; r < preds.size(); ++r) {
          if (preds[r] != fixed_preds[r]) ++tail_mismatches;
        }
        std::printf(
            "closed loop: %d rows, %zu prediction mismatches vs fixed "
            "batching\n",
            tail_requests, tail_mismatches);
      }
    }
    if (tail_mismatches != 0) {
      std::fprintf(stderr,
                   "FAIL: continuous batching diverges from the fixed-batch "
                   "path\n");
      return 1;
    }

    // Open loop at ~75% of the fixed path's closed-loop throughput, the
    // same rate for both paths; latency stamped per request, shorts and
    // the full stream tracked separately.
    struct OpenLoopResult {
      double seconds = 0.0;
      obs::HistogramSnapshot all;
      obs::HistogramSnapshot shorts;
      serve::ServiceStats stats;
    };
    const double tail_offered = std::max(1.0, 0.75 * tail_fixed_rows_per_sec);
    auto run_open = [&](bool continuous) {
      Rng rng(kSeed + 61);
      serve::TransformService service(make_tail_model(),
                                      tail_options(continuous, rng.Next()));
      obs::Histogram all_ms;
      obs::Histogram short_ms;
      const auto t0 = std::chrono::steady_clock::now();
      const std::chrono::duration<double> gap(1.0 / tail_offered);
      Stopwatch timer;
      for (int i = 0; i < tail_requests; ++i) {
        const auto target = t0 + std::chrono::duration_cast<
                                     std::chrono::steady_clock::duration>(
                                     gap * static_cast<double>(i));
        std::this_thread::sleep_until(target);
        serve::SubmitOptions submit;
        submit.max_output_tokens = is_long(i) ? kLongBudget : kShortBudget;
        obs::Histogram* shorts_sink = is_long(i) ? nullptr : &short_ms;
        const auto submitted = std::chrono::steady_clock::now();
        auto admitted = service.Submit(
            tail_sources[static_cast<size_t>(i)], examples, submit,
            [submitted, &all_ms, shorts_sink](const RowPrediction&) {
              const std::chrono::duration<double, std::milli> elapsed =
                  std::chrono::steady_clock::now() - submitted;
              all_ms.Record(elapsed.count());
              if (shorts_sink != nullptr) shorts_sink->Record(elapsed.count());
            });
        if (!admitted.ok()) {
          std::fprintf(stderr, "unexpected rejection: %s\n",
                       admitted.status().message().c_str());
        }
      }
      service.Drain();
      OpenLoopResult result;
      result.seconds = timer.Seconds();
      result.all = all_ms.Snapshot();
      result.shorts = short_ms.Snapshot();
      result.stats = service.stats();
      return result;
    };

    const OpenLoopResult tail_fixed = run_open(false);
    const OpenLoopResult tail_cont = run_open(true);
    auto report_tail = [&](const char* run_name, const OpenLoopResult& r,
                           bool continuous) {
      const double achieved =
          static_cast<double>(r.all.count) / r.seconds;
      std::printf(
          "%s: offered %.1f rows/s, achieved %.1f rows/s; latency p50 "
          "%.2f ms, p95 %.2f ms, p99 %.2f ms; short-request p99 %.2f ms\n",
          continuous ? "continuous" : "fixed", tail_offered, achieved,
          r.all.Percentile(0.50), r.all.Percentile(0.95),
          r.all.Percentile(0.99), r.shorts.Percentile(0.99));
      auto& run = report.AddRun(run_name)
                      .Set("requests", static_cast<int64_t>(tail_requests))
                      .Set("short_budget", static_cast<int64_t>(kShortBudget))
                      .Set("long_budget", static_cast<int64_t>(kLongBudget))
                      .Set("offered_rows_per_sec", tail_offered)
                      .Set("achieved_rows_per_sec", achieved)
                      .Set("seconds", r.seconds)
                      .Set("latency_p50_ms", r.all.Percentile(0.50))
                      .Set("latency_p95_ms", r.all.Percentile(0.95))
                      .Set("latency_p99_ms", r.all.Percentile(0.99))
                      .Set("short_latency_p50_ms", r.shorts.Percentile(0.50))
                      .Set("short_latency_p99_ms", r.shorts.Percentile(0.99));
      const serve::BackendStats& backend = r.stats.backends[0];
      if (continuous) {
        run.Set("cb_admitted", static_cast<int64_t>(backend.cb_admitted))
            .Set("cb_admit_groups",
                 static_cast<int64_t>(backend.cb_admit_groups))
            .Set("cb_steps", static_cast<int64_t>(backend.cb_steps))
            .Set("cb_evicted", static_cast<int64_t>(backend.cb_evicted));
      } else {
        run.Set("batches", static_cast<int64_t>(backend.batches))
            .Set("mean_batch_size", backend.mean_batch_size);
      }
    };
    report_tail("longtail_fixed", tail_fixed, false);
    report_tail("longtail_continuous", tail_cont, true);
    const double p99_speedup =
        tail_cont.shorts.Percentile(0.99) > 0.0
            ? tail_fixed.shorts.Percentile(0.99) /
                  tail_cont.shorts.Percentile(0.99)
            : 0.0;
    std::printf("short-request p99 speedup (continuous vs fixed): %.2fx\n",
                p99_speedup);
    report.AddRun("longtail_summary")
        .Set("short_p99_speedup", p99_speedup)
        .Set("overall_p99_fixed_ms", tail_fixed.all.Percentile(0.99))
        .Set("overall_p99_continuous_ms", tail_cont.all.Percentile(0.99));
  }

  const std::string json_path = report.Write();
  if (!json_path.empty()) {
    std::printf("\nbench JSON written to %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace dtt

int main() { return dtt::Main(); }
