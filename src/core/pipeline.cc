#include "core/pipeline.h"

#include <algorithm>
#include <future>

#include "obs/trace.h"
#include "serve/service.h"
#include "util/thread_pool.h"

namespace dtt {

DttPipeline::DttPipeline(std::vector<std::shared_ptr<TextToTextModel>> models,
                         PipelineOptions options)
    : models_(std::move(models)),
      options_(options),
      decomposer_(options.decomposer) {}

DttPipeline::DttPipeline(std::shared_ptr<TextToTextModel> model,
                         PipelineOptions options)
    : DttPipeline(std::vector<std::shared_ptr<TextToTextModel>>{
                      std::move(model)},
                  options) {}

RowPrediction DttPipeline::TransformRow(
    const std::string& source, const std::vector<ExamplePair>& examples,
    Rng* rng) const {
  RowPrediction row;
  row.source = source;
  std::vector<std::vector<std::string>> per_model;
  per_model.reserve(models_.size());
  for (const auto& model : models_) {
    std::vector<Prompt> prompts = decomposer_.MakePrompts(source, examples,
                                                          rng);
    std::vector<std::string> trials;
    trials.reserve(prompts.size());
    for (auto& result : model->TransformBatch(prompts)) {
      trials.push_back(OutputOrAbstain(result));
    }
    per_model.push_back(std::move(trials));
  }
  AggregateResult agg = aggregator_.AggregateMulti(per_model);
  row.prediction = agg.prediction;
  row.confidence = agg.confidence;
  row.support = agg.support;
  return row;
}

std::vector<RowPrediction> DttPipeline::TransformAll(
    const std::vector<std::string>& sources,
    const std::vector<ExamplePair>& examples, Rng* rng) const {
  obs::TraceSpan span("pipeline", "pipeline.transform_all");
  if (span.enabled()) {
    span.Arg("rows", static_cast<int64_t>(sources.size()));
    span.Arg("models", static_cast<int64_t>(models_.size()));
    span.Arg("batch_size", static_cast<int64_t>(options_.batch_size));
    span.Arg("threads", static_cast<int64_t>(options_.num_threads));
  }
  serve::ServeOptions sopts;
  sopts.decomposer = options_.decomposer;
  // One draw seeds the service's per-request streams — the same single draw
  // (and the same Fork(row).Fork(model) streams) as the fixed-batch path, so
  // repeated calls with one Rng stay independent and predictions match
  // TransformAllFixedBatch bit-for-bit.
  sopts.seed = rng->Next();
  sopts.num_threads = options_.num_threads;
  serve::BackendQueueOptions queue_opts;
  queue_opts.max_batch = options_.batch_size;
  queue_opts.max_wait_ms = 0.0;
  sopts.backends.assign(models_.size(), queue_opts);
  sopts.max_pending_rows = std::max<size_t>(1, sources.size());
  // Enqueue the whole table before cutting batches, so offline batches fill
  // to max_batch exactly as the fixed-batch path groups them.
  sopts.start_paused = true;
  serve::TransformService service(models_, sopts);

  std::vector<std::future<RowPrediction>> futures;
  futures.reserve(sources.size());
  for (const std::string& source : sources) {
    // Cannot be rejected: max_pending_rows covers the whole table.
    futures.push_back(service.Submit(source, examples).value());
  }
  service.Start();
  std::vector<RowPrediction> out;
  out.reserve(futures.size());
  for (auto& future : futures) out.push_back(future.get());
  return out;
}

std::vector<RowPrediction> DttPipeline::TransformAllFixedBatch(
    const std::vector<std::string>& sources,
    const std::vector<ExamplePair>& examples, Rng* rng) const {
  obs::TraceSpan span("pipeline", "pipeline.transform_all_fixed");
  if (span.enabled()) {
    span.Arg("rows", static_cast<int64_t>(sources.size()));
    span.Arg("models", static_cast<int64_t>(models_.size()));
    span.Arg("batch_size", static_cast<int64_t>(options_.batch_size));
    span.Arg("threads", static_cast<int64_t>(options_.num_threads));
  }
  const size_t num_rows = sources.size();
  const size_t num_models = models_.size();

  // Phase 1: materialize every (row, model, trial) prompt. One draw from the
  // caller's stream seeds a per-call base generator — so repeated calls with
  // the same Rng object stay independent — and row r's contexts come from
  // base.Fork(r) (model m from a sub-fork), a pure function of that draw.
  // The prompt set is therefore fixed before any dispatch and independent of
  // batch size, thread count, and scheduling.
  Rng base_rng(rng->Next());
  std::vector<std::vector<std::vector<Prompt>>> prompts(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    Rng row_rng = base_rng.Fork(static_cast<uint64_t>(r));
    prompts[r].resize(num_models);
    for (size_t m = 0; m < num_models; ++m) {
      Rng model_rng = row_rng.Fork(static_cast<uint64_t>(m));
      prompts[r][m] = decomposer_.MakePrompts(sources[r], examples,
                                              &model_rng);
    }
  }

  // Phase 2: flatten into per-model batches of at most batch_size prompts
  // and dispatch. Each batch writes to disjoint output slots, so parallel
  // execution is deterministic.
  struct SlotRef {
    size_t row;
    size_t trial;
  };
  struct BatchJob {
    size_t model;
    std::vector<SlotRef> slots;
  };
  std::vector<std::vector<std::vector<std::string>>> outputs(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    outputs[r].resize(num_models);
    for (size_t m = 0; m < num_models; ++m) {
      outputs[r][m].resize(prompts[r][m].size());
    }
  }
  const size_t batch_size =
      static_cast<size_t>(std::max(1, options_.batch_size));
  std::vector<BatchJob> jobs;
  for (size_t m = 0; m < num_models; ++m) {
    BatchJob job{m, {}};
    for (size_t r = 0; r < num_rows; ++r) {
      for (size_t t = 0; t < prompts[r][m].size(); ++t) {
        job.slots.push_back({r, t});
        if (job.slots.size() == batch_size) {
          jobs.push_back(std::move(job));
          job = BatchJob{m, {}};
        }
      }
    }
    if (!job.slots.empty()) jobs.push_back(std::move(job));
  }

  auto run_job = [&](size_t ji) {
    const BatchJob& job = jobs[ji];
    TextToTextModel* model = models_[job.model].get();
    if (batch_size == 1) {
      // The reference per-prompt path: one Transform call per prompt.
      const SlotRef& slot = job.slots[0];
      outputs[slot.row][job.model][slot.trial] =
          OutputOrAbstain(model->Transform(prompts[slot.row][job.model]
                                                  [slot.trial]));
      return;
    }
    std::vector<Prompt> batch;
    batch.reserve(job.slots.size());
    for (const SlotRef& slot : job.slots) {
      batch.push_back(prompts[slot.row][job.model][slot.trial]);
    }
    std::vector<Result<std::string>> results = model->TransformBatch(batch);
    for (size_t i = 0; i < job.slots.size(); ++i) {
      const SlotRef& slot = job.slots[i];
      outputs[slot.row][job.model][slot.trial] = OutputOrAbstain(results[i]);
    }
  };

  bool parallel_ok = options_.num_threads > 1;
  for (const auto& model : models_) {
    parallel_ok = parallel_ok && model->thread_safe();
  }
  if (parallel_ok) {
    ThreadPool::ParallelFor(options_.num_threads, jobs.size(), run_job);
  } else {
    for (size_t ji = 0; ji < jobs.size(); ++ji) run_job(ji);
  }

  // Phase 3: pool every model's trials per row through the aggregator.
  std::vector<RowPrediction> out;
  out.reserve(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    RowPrediction row;
    row.source = sources[r];
    AggregateResult agg = aggregator_.AggregateMulti(outputs[r]);
    row.prediction = agg.prediction;
    row.confidence = agg.confidence;
    row.support = agg.support;
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace dtt
