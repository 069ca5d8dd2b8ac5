// Experiment E7 — the §5.5 in-text runtime comparisons:
//  (a) join wall-clock as the input row LENGTH grows (paper: 5 -> 50 chars:
//      DTT 5s -> 17s, CST 3s -> 90s on the authors' hardware);
//  (b) join wall-clock as the ROW COUNT grows, using the two named
//      spreadsheet tables "phone-10-short" (7 rows) and "phone-10-long"
//      (100 rows) (paper: DTT 3->22s, CST 4->366s, AFJ 4->38s, Ditto 1->10s);
//  (c) row-count growth on synthetic tables (quadratic CST);
//  (d) neural-path throughput: the serial per-prompt decode vs the batched
//      multi-threaded pipeline (rows/sec and speedup);
//  (e) dataset-grid sharding: the whole benchmark grid through the
//      ExperimentRunner, serial vs 4 workers — identical DatasetEvals,
//      ROADMAP's "table sharding" wall-clock win;
//  (f) beam-decode batching: BeamDecodeBatch run once per prompt vs one
//      call over all prompts at beam width 4 (bit-identical, so the delta
//      is pure batching throughput);
// Absolute numbers differ (different hardware and model substrate); the
// claim reproduced is the GROWTH: DTT scales roughly linearly with length
// and rows, CST polynomially with length and quadratically with rows.
// Every timing also lands in a machine-readable JSON document (see
// bench/bench_json.h) so perf deltas are tracked across PRs.
#include <cstdio>
#include <thread>

#include "bench/exp_common.h"
#include "data/realworld_datasets.h"
#include "data/synthetic_datasets.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "models/neural_model.h"
#include "text/tokenizer.h"
#include "util/stopwatch.h"

namespace dtt {
namespace {

constexpr uint64_t kSeed = 20246;

/// The four Table 1 methods as a spec column set.
void AddRuntimeMethods(ExperimentSpec* spec) {
  spec->AddMethod(MakeDttMethod());
  spec->AddMethod(std::make_unique<CstJoinMethod>());
  spec->AddMethod(std::make_unique<AfjJoinMethod>());
  spec->AddMethod(std::make_unique<DittoJoinMethod>());
}

/// Times every method on one table: a one-table × 4-method grid, evaluated
/// serially so per-method wall-clock is not polluted by sibling cells.
GridResult TimeOnTable(const bench::ExpContext& ctx, const std::string& name,
                       const TablePair& table) {
  Dataset one;
  one.name = name;
  one.tables.push_back(table);
  ExperimentSpec spec = ctx.Spec("runtime");
  spec.AddDataset(one);
  AddRuntimeMethods(&spec);
  return ExperimentRunner(RunnerOptions{1}).Run(spec);
}

/// Random lowercase-with-separator source strings for the neural throughput
/// sweep ("ab-cde" style).
std::string ThroughputSource(Rng* rng) {
  static constexpr char kAlpha[] = "abcdefghijklmnopqrstuvwxyz";
  std::string s;
  const int n = static_cast<int>(rng->NextInt(8, 12));
  for (int i = 0; i < n; ++i) {
    s.push_back(i == n / 2 ? '-' : kAlpha[rng->NextBounded(26)]);
  }
  return s;
}

/// (d): the same source rows through the same untrained byte-level
/// transformer, once on the per-prompt serial path (batch 1, 1 thread) and
/// once batched + sharded. The decodes are bit-exact, so the delta is pure
/// throughput.
void NeuralThroughput(uint64_t seed, bench::BenchJsonReporter* report) {
  nn::TransformerConfig cfg;
  cfg.dim = 48;
  cfg.num_heads = 4;
  cfg.ff_hidden = 96;
  cfg.encoder_layers = 2;
  cfg.decoder_layers = 1;
  cfg.max_len = 160;
  Rng init_rng(seed);
  auto transformer = std::make_shared<nn::Transformer>(cfg, &init_rng);
  SerializerOptions sopts;
  sopts.max_tokens = cfg.max_len;
  NeuralModelOptions nopts;
  nopts.max_output_tokens = 16;
  auto model = std::make_shared<NeuralSeq2SeqModel>(
      transformer, Serializer(sopts), nopts);

  Rng data_rng(seed + 1);
  std::vector<ExamplePair> examples;
  for (int i = 0; i < 6; ++i) {
    std::string src = ThroughputSource(&data_rng);
    examples.push_back({src, src.substr(src.find('-') + 1)});
  }
  std::vector<std::string> sources;
  for (int i = 0; i < 24; ++i) sources.push_back(ThroughputSource(&data_rng));

  struct Config {
    const char* name;
    int batch_size;
    int num_threads;
  };
  const Config configs[] = {{"serial", 1, 1}, {"batched", 8, 4}};
  TablePrinter table({"config", "batch", "threads", "s", "rows/s"});
  double serial_rows_per_sec = 0.0;
  double batched_rows_per_sec = 0.0;
  for (const Config& c : configs) {
    PipelineOptions popts;
    popts.batch_size = c.batch_size;
    popts.num_threads = c.num_threads;
    DttPipeline pipeline(model, popts);
    Rng rng(seed + 2);
    Stopwatch timer;
    auto rows = pipeline.TransformAll(sources, examples, &rng);
    const double seconds = timer.Seconds();
    const double rows_per_sec = static_cast<double>(rows.size()) / seconds;
    if (c.batch_size == 1) {
      serial_rows_per_sec = rows_per_sec;
    } else {
      batched_rows_per_sec = rows_per_sec;
    }
    table.AddRow({c.name, std::to_string(c.batch_size),
                  std::to_string(c.num_threads), TablePrinter::Num(seconds, 3),
                  TablePrinter::Num(rows_per_sec, 2)});
    report->AddRun(std::string("neural_") + c.name)
        .Set("seconds", seconds)
        .Set("rows", static_cast<int64_t>(rows.size()))
        .Set("rows_per_sec", rows_per_sec)
        .Set("batch_size", c.batch_size)
        .Set("num_threads", c.num_threads);
  }
  table.Print();
  const double speedup =
      serial_rows_per_sec > 0.0 ? batched_rows_per_sec / serial_rows_per_sec
                                : 0.0;
  std::printf("batched+threaded speedup over serial: %.2fx\n", speedup);
  report->AddRun("neural_speedup").Set("speedup", speedup);
}

/// (f): beam search on the same untrained byte-level transformer through
/// the KV-cache engine, once per prompt and once as one batch. The outputs
/// are checked identical, so the speedup is pure batching throughput — the
/// beam-search analogue of section (d). Bit-exactness against the autograd
/// reference is nn_beam_test's job.
void BeamThroughput(uint64_t seed, bench::BenchJsonReporter* report) {
  nn::TransformerConfig cfg;
  cfg.dim = 48;
  cfg.num_heads = 4;
  cfg.ff_hidden = 96;
  cfg.encoder_layers = 2;
  cfg.decoder_layers = 1;
  cfg.max_len = 160;
  Rng init_rng(seed);
  nn::Transformer model(cfg, &init_rng);
  constexpr int kBeamWidth = 4;
  constexpr int kMaxSteps = 12;
  Rng data_rng(seed + 3);
  ByteTokenizer tokenizer;
  std::vector<std::vector<int>> prompts;
  for (int i = 0; i < 16; ++i) {
    prompts.push_back(tokenizer.Encode(ThroughputSource(&data_rng), false));
  }

  Stopwatch per_prompt_timer;
  std::vector<std::vector<int>> per_prompt;
  for (const auto& prompt : prompts) {
    per_prompt.push_back(
        model.BeamDecodeBatch({prompt}, kMaxSteps, kBeamWidth)[0]);
  }
  const double per_prompt_seconds = per_prompt_timer.Seconds();
  Stopwatch batched_timer;
  std::vector<std::vector<int>> batched =
      model.BeamDecodeBatch(prompts, kMaxSteps, kBeamWidth);
  const double batched_seconds = batched_timer.Seconds();
  const bool identical = batched == per_prompt;

  const double per_prompt_rate =
      per_prompt_seconds > 0.0 ? prompts.size() / per_prompt_seconds : 0.0;
  const double batched_rate =
      batched_seconds > 0.0 ? prompts.size() / batched_seconds : 0.0;
  const double speedup =
      batched_seconds > 0.0 ? per_prompt_seconds / batched_seconds : 0.0;
  TablePrinter table({"path", "beam", "prompts", "s", "prompts/s"});
  table.AddRow({"per-prompt calls", std::to_string(kBeamWidth),
                std::to_string(prompts.size()),
                TablePrinter::Num(per_prompt_seconds, 3),
                TablePrinter::Num(per_prompt_rate, 2)});
  table.AddRow({"one batched call", std::to_string(kBeamWidth),
                std::to_string(prompts.size()),
                TablePrinter::Num(batched_seconds, 3),
                TablePrinter::Num(batched_rate, 2)});
  table.Print();
  std::printf("outputs bit-identical: %s\n", identical ? "yes" : "NO (BUG)");
  std::printf("batched beam speedup at width %d: %.2fx\n", kBeamWidth,
              speedup);
  report->AddRun("beam_per_prompt")
      .Set("seconds", per_prompt_seconds)
      .Set("prompts", static_cast<int64_t>(prompts.size()))
      .Set("beam_width", kBeamWidth)
      .Set("prompts_per_sec", per_prompt_rate);
  report->AddRun("beam_batched")
      .Set("seconds", batched_seconds)
      .Set("prompts", static_cast<int64_t>(prompts.size()))
      .Set("beam_width", kBeamWidth)
      .Set("prompts_per_sec", batched_rate);
  report->AddRun("beam_speedup").Set("speedup", speedup).Set("identical",
                                                             identical);
}

/// (e): the full benchmark grid (all seven datasets × the four Table 1
/// methods) expanded into cells and sharded across the ExperimentRunner's
/// workers — the "table sharding" level above PR 2's prompt-batch sharding.
/// The merged DatasetEvals are bit-identical to the serial pass; only the
/// wall clock moves.
void GridSharding(const bench::ExpContext& ctx,
                  bench::BenchJsonReporter* report) {
  constexpr int kWorkers = 4;
  // Materialize the seven benchmarks once, outside both timed legs, so the
  // wall clocks compare pure cell evaluation (dataset generation is a fixed
  // serial term sharding can never recover).
  const std::vector<Dataset> datasets =
      MakeAllDatasets(ctx.seed, 0.35 * ctx.row_scale);
  auto build_spec = [&] {
    ExperimentSpec spec = ctx.Spec("grid");
    for (const Dataset& ds : datasets) spec.AddDataset(ds);
    AddRuntimeMethods(&spec);
    return spec;
  };
  GridResult serial = ExperimentRunner(RunnerOptions{1}).Run(build_spec());
  std::fprintf(stderr, "[runtime] grid serial done (%.1fs)\n",
               serial.wall_seconds);
  GridResult sharded =
      ExperimentRunner(RunnerOptions{kWorkers}).Run(build_spec());
  std::fprintf(stderr, "[runtime] grid sharded done (%.1fs)\n",
               sharded.wall_seconds);

  bool identical = true;
  for (size_t d = 0; d < serial.evals.size(); ++d) {
    for (size_t m = 0; m < serial.evals[d].size(); ++m) {
      const DatasetEval& a = serial.evals[d][m];
      const DatasetEval& b = sharded.evals[d][m];
      identical = identical && a.join.f1 == b.join.f1 &&
                  a.join.precision == b.join.precision &&
                  a.join.recall == b.join.recall && a.pred.aned == b.pred.aned;
    }
  }
  const double speedup = sharded.wall_seconds > 0.0
                             ? serial.wall_seconds / sharded.wall_seconds
                             : 0.0;
  TablePrinter table({"path", "workers", "cells", "wall s", "speedup"});
  table.AddRow({"serial", "1", std::to_string(serial.num_cells),
                TablePrinter::Num(serial.wall_seconds, 2), "1.00"});
  table.AddRow({"sharded", std::to_string(kWorkers),
                std::to_string(sharded.num_cells),
                TablePrinter::Num(sharded.wall_seconds, 2),
                TablePrinter::Num(speedup, 2)});
  table.Print();
  std::printf("DatasetEvals bit-identical across worker counts: %s\n",
              identical ? "yes" : "NO (BUG)");
  const unsigned host_threads = std::thread::hardware_concurrency();
  std::printf(
      "dataset-grid speedup at %d workers: %.2fx (target >= 2x on hosts "
      "with >= %d hardware threads; this host has %u)\n",
      kWorkers, speedup, kWorkers, host_threads);
  report->AddRun("grid_sharding")
      .Set("workers", kWorkers)
      .Set("cells", static_cast<int64_t>(sharded.num_cells))
      .Set("serial_seconds", serial.wall_seconds)
      .Set("sharded_seconds", sharded.wall_seconds)
      .Set("speedup", speedup)
      .Set("identical", identical);
}

int Main() {
  auto ctx = bench::BeginExperiment("exp_runtime", "§5.5 runtime scalability",
                                    /*default_row_scale=*/1.0, kSeed);
  PrintBanner("(a) runtime vs input length (one 40-row synthetic table)");
  {
    TablePrinter table({"len", "DTT s", "CST s", "AFJ s", "Ditto s"});
    for (int len : {5, 10, 20, 35, 50}) {
      SyntheticOptions opts;
      opts.num_tables = 1;
      opts.rows_per_table = 40;
      opts.min_len = len;
      opts.max_len = len + 2;
      Rng rng(ctx.seed + static_cast<uint64_t>(len));
      Dataset ds = MakeSyn(opts, &rng);
      GridResult grid = TimeOnTable(ctx, ds.name, ds.tables[0]);
      std::vector<std::string> row = {std::to_string(len)};
      for (const std::string& method : grid.methods) {
        const double seconds = grid.Eval(ds.name, method).seconds;
        row.push_back(TablePrinter::Num(seconds, 3));
        ctx.report.AddRun("len_sweep")
            .Set("len", len)
            .Set("method", method)
            .Set("seconds", seconds);
      }
      table.AddRow(std::move(row));
      std::fprintf(stderr, "[runtime] len=%d done\n", len);
    }
    table.Print();
  }

  PrintBanner("(b) runtime vs row count (phone-10-short vs phone-10-long)");
  {
    RealWorldOptions opts;
    Rng rng(ctx.seed);
    Dataset ss = MakeSpreadsheet(opts, &rng);
    TablePrinter table({"table", "rows", "DTT s", "CST s", "AFJ s", "Ditto s"});
    for (const char* name : {"phone-10-short", "phone-10-long"}) {
      const TablePair* t = FindTable(ss, name);
      GridResult grid = TimeOnTable(ctx, ss.name, *t);
      std::vector<std::string> row = {name, std::to_string(t->num_rows())};
      for (const std::string& method : grid.methods) {
        const double seconds = grid.Eval(ss.name, method).seconds;
        row.push_back(TablePrinter::Num(seconds, 3));
        ctx.report.AddRun("spreadsheet")
            .Set("table", name)
            .Set("rows", static_cast<int64_t>(t->num_rows()))
            .Set("method", method)
            .Set("seconds", seconds);
      }
      table.AddRow(std::move(row));
    }
    table.Print();
  }

  PrintBanner("(c) row-count growth on synthetic tables (quadratic CST)");
  {
    TablePrinter table({"rows", "DTT s", "CST s", "AFJ s", "Ditto s"});
    for (int rows : {10, 25, 50, 100, 200}) {
      SyntheticOptions opts;
      opts.num_tables = 1;
      opts.rows_per_table = rows;
      // Fixed seed: the SAME transformation program at every row count, so
      // the sweep isolates row-count growth from program difficulty.
      Rng rng(ctx.seed + 777);
      Dataset ds = MakeSyn(opts, &rng);
      GridResult grid = TimeOnTable(ctx, ds.name, ds.tables[0]);
      std::vector<std::string> row = {std::to_string(rows)};
      for (const std::string& method : grid.methods) {
        const double seconds = grid.Eval(ds.name, method).seconds;
        row.push_back(TablePrinter::Num(seconds, 3));
        ctx.report.AddRun("row_sweep")
            .Set("rows", rows)
            .Set("method", method)
            .Set("seconds", seconds);
      }
      table.AddRow(std::move(row));
      std::fprintf(stderr, "[runtime] rows=%d done\n", rows);
    }
    table.Print();
  }

  PrintBanner("(d) neural path throughput: serial vs batched+threaded");
  NeuralThroughput(ctx.seed, &ctx.report);

  PrintBanner("(e) dataset-grid sharding: serial vs 4-worker runner");
  GridSharding(ctx, &ctx.report);

  PrintBanner("(f) beam decode: per-prompt vs batched BeamDecodeBatch");
  BeamThroughput(ctx.seed, &ctx.report);

  std::printf(
      "\nShape check vs §5.5: the CST column grows much faster than the DTT "
      "column with both length and rows; AFJ/Ditto sit between.\n");
  ctx.Finish();
  return 0;
}

}  // namespace
}  // namespace dtt

int main() { return dtt::Main(); }
