// table_join: the paper's offline path (§5.4). Every WT table is split Se/St
// with the seed; the first 20 St sources go through DttPipeline::TransformAll
// with the simulated DTT model (k=2, n=5, 2 workers) and
// EditDistanceJoiner::Join joins the predictions against their St target
// column. The join F1 and a digest of the predictions must equal those of
// the TransformAllFixedBatch reference.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "core/joiner.h"
#include "core/pipeline.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "util/rng.h"
#include "workload_common.h"

namespace perfbench {

namespace {

/// St rows transformed per table: every WT table has at least 60 rows, so
/// every St half has at least 30. A fixed count keeps the per-table work the
/// same from seed to seed, and short passes let a run average several.
constexpr size_t kTestRows = 20;
/// About one pass over the corpus on a 4-thread x86 host; --seconds buys
/// whole passes.
constexpr double kPassSeconds = 6.0;

struct TableJoinSetup {
  std::vector<dtt::TableSplit> splits;
  std::shared_ptr<dtt::TextToTextModel> model;
  std::unique_ptr<dtt::DttPipeline> pipeline;   // served (maybe timed) model
  std::unique_ptr<dtt::DttPipeline> reference;  // bare model
};

dtt::PipelineOptions Options(int threads) {
  dtt::PipelineOptions options;
  options.decomposer.context_size = 2;
  options.decomposer.num_trials = 5;
  options.num_threads = threads;
  return options;
}

TableJoinSetup Build(const RunConfig& config, SpanLog* log) {
  TableJoinSetup s;
  const dtt::Dataset corpus = MakeWtCorpus(config.seed);
  const dtt::Rng split_rng =
      dtt::Rng(config.seed).Fork(dtt::Rng::HashString("split"));
  for (size_t t = 0; t < corpus.tables.size(); ++t) {
    dtt::Rng rng = split_rng.Fork(t);
    dtt::TableSplit split = dtt::SplitTable(corpus.tables[t], &rng);
    split.test.resize(std::min(split.test.size(), kTestRows));
    s.splits.push_back(std::move(split));
  }
  s.model = dtt::MakeDttModel();
  s.pipeline = std::make_unique<dtt::DttPipeline>(
      MaybeTimed(s.model, Backend::kDtt, log), Options(kWorkers));
  s.reference = std::make_unique<dtt::DttPipeline>(
      s.model, Options(kReferenceWorkers));
  return s;
}

dtt::Rng TransformRng(uint64_t seed, size_t table) {
  return dtt::Rng(seed).Fork(dtt::Rng::HashString("transform")).Fork(table);
}

}  // namespace

WorkloadResult RunTableJoin(const RunConfig& config, SpanLog* log) {
  WorkloadResult result;
  std::vector<double> setup_s;
  const auto throwaway = [&] { return Build(config, log); };
  TimeSetups(kSetupReps / 3 - 1, throwaway, &setup_s);
  const Clock::time_point setup_start = Clock::now();
  const TableJoinSetup s = Build(config, log);
  setup_s.push_back(MillisBetween(setup_start, Clock::now()) / 1e3);
  const dtt::EditDistanceJoiner joiner;
  const int passes =
      std::max(1, static_cast<int>(std::floor(config.seconds / kPassSeconds)));

  const dtt::obs::MetricsSnapshot before =
      dtt::obs::GlobalMetrics().Snapshot();
  const Clock::time_point t0 = Clock::now();
  std::vector<double> row_latency_ms;
  std::vector<std::vector<dtt::RowPrediction>> first_pass;
  std::vector<dtt::JoinMetrics> scores;
  uint64_t rows = 0;
  uint64_t pass_mismatches = 0;
  for (int pass = 0; pass < passes; ++pass) {
    // Each pass is one offline job over the corpus, submitted at pass_start.
    const Clock::time_point pass_start = Clock::now();
    for (size_t t = 0; t < s.splits.size(); ++t) {
      const dtt::TableSplit& split = s.splits[t];
      const std::vector<std::string> sources = split.TestSources();
      const std::vector<std::string> targets = split.TestTargets();
      dtt::Rng rng = TransformRng(config.seed, t);
      std::vector<dtt::RowPrediction> preds;
      {
        ScopedSpan span(log, SpanKind::kTransformAll, Backend::kNone,
                        static_cast<int64_t>(sources.size()));
        preds = s.pipeline->TransformAll(sources, split.examples, &rng);
      }
      dtt::JoinResult join;
      {
        ScopedSpan span(log, SpanKind::kJoin, Backend::kNone,
                        static_cast<int64_t>(preds.size()));
        join = joiner.Join(preds, targets);
      }
      // A row's joined result is ready when its table is joined.
      const double latency = MillisBetween(pass_start, Clock::now());
      row_latency_ms.insert(row_latency_ms.end(), preds.size(), latency);
      rows += preds.size();
      if (pass == 0) {
        scores.push_back(dtt::ScoreJoin(join, targets, targets));
        first_pass.push_back(std::move(preds));
      } else {
        for (size_t r = 0; r < preds.size(); ++r) {
          pass_mismatches +=
              preds[r].prediction != first_pass[t][r].prediction;
        }
      }
    }
  }
  const Clock::time_point t1 = Clock::now();
  const dtt::obs::MetricsSnapshot after = dtt::obs::GlobalMetrics().Snapshot();
  const double seconds = MillisBetween(t0, t1) / 1e3;
  const double peak_rss_mb = PeakRssMb();
  TimeSetups(kSetupReps / 3, throwaway, &setup_s);

  // Reference: the fixed-batch path on the same splits and streams.
  uint64_t mismatched = pass_mismatches;
  std::vector<dtt::JoinMetrics> ref_scores;
  Digest digest, ref_digest;
  const Clock::time_point ref_start = Clock::now();
  for (size_t t = 0; t < s.splits.size(); ++t) {
    for (const dtt::RowPrediction& row : first_pass[t]) {
      digest.Add(row.prediction);
    }
    if (!config.verify) continue;
    const dtt::TableSplit& split = s.splits[t];
    const std::vector<std::string> targets = split.TestTargets();
    dtt::Rng rng = TransformRng(config.seed, t);
    std::vector<dtt::RowPrediction> ref = s.reference->TransformAllFixedBatch(
        split.TestSources(), split.examples, &rng);
    ref_scores.push_back(
        dtt::ScoreJoin(joiner.Join(ref, targets), targets, targets));
    for (size_t r = 0; r < ref.size(); ++r) {
      ref_digest.Add(ref[r].prediction);
      mismatched += first_pass[t][r].prediction != ref[r].prediction;
    }
  }
  const double ref_seconds = MillisBetween(ref_start, Clock::now()) / 1e3;
  TimeSetups(kSetupReps - static_cast<int>(setup_s.size()), throwaway,
             &setup_s);
  const double f1 = dtt::AverageJoin(scores).f1;
  const double ref_f1 = config.verify ? dtt::AverageJoin(ref_scores).f1 : f1;
  if (!config.verify) ref_digest = digest;
  result.attempted = rows;
  result.failed = mismatched;
  result.correct =
      mismatched == 0 && f1 == ref_f1 && digest.Hex() == ref_digest.Hex();
  result.digest = digest.Hex();
  result.rows_per_s = static_cast<double>(rows) / seconds;

  char line[256];
  std::snprintf(line, sizeof(line),
                "%d pass(es) over %zu tables, %llu rows in %.3f s", passes,
                s.splits.size(), static_cast<unsigned long long>(rows),
                seconds);
  result.notes.push_back(line);
  std::snprintf(line, sizeof(line),
                "prediction digest %s (reference %s); %llu rows mismatched; "
                "reference %.2f s%s",
                digest.Hex().c_str(), ref_digest.Hex().c_str(),
                static_cast<unsigned long long>(mismatched), ref_seconds,
                config.verify ? "" : " [not verified]");
  result.notes.push_back(line);
  std::snprintf(line, sizeof(line), "macro over tables; reference %.6f",
                ref_f1);
  result.printed.push_back(
      {"join_f1", "ratio", f1, static_cast<uint64_t>(scores.size()), line});
  result.notes.push_back(
      "latency: from the start of the pass (one offline job over every "
      "table) to the join of the row's table");

  result.end_to_end.push_back(
      {"setup_s", "s", Median(setup_s), setup_s.size(), ""});
  result.end_to_end.push_back(
      {"rows_per_s", "1/s", result.rows_per_s, rows, "transform + join"});
  AddLatencyMetrics("latency", row_latency_ms, /*with_p50=*/true,
                    &result.end_to_end);
  AddLatencyMetrics("short_latency", row_latency_ms, /*with_p50=*/false,
                    &result.end_to_end);
  result.end_to_end.push_back(
      {"peak_rss_mb", "MB", peak_rss_mb, 1, "ru_maxrss after the last pass"});

  if (log != nullptr) {
    LayerInputs in;
    in.spans = log->spans();
    in.before = before;
    in.after = after;
    in.t0 = t0;
    in.t1 = t1;
    result.per_layer = LayerMetrics(in);
    result.spans = std::move(in.spans);
  }
  return result;
}

}  // namespace perfbench
