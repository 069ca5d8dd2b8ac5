#ifndef DTT_EVAL_RUNNER_H_
#define DTT_EVAL_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "eval/join_eval.h"

namespace dtt {

/// Produces one evaluation benchmark. Factories run once per ExperimentRunner
/// invocation; the resulting tables are shared (read-only) by every method.
using DatasetFactory = std::function<Dataset()>;

/// Produces a fresh JoinMethod instance. Used when a spec entry should be
/// instantiated per worker cell instead of cloned from a prototype; invoked
/// concurrently from worker threads in a sharded run, so it must not touch
/// shared mutable state.
using MethodFactory = std::function<std::unique_ptr<JoinMethod>()>;

/// Seed of the split/mutation RNG stream of one grid cell's table: a pure
/// function of (seed, dataset, table) — deliberately NOT of the method, so
/// every method sees the identical Se/St split and example mutation of each
/// table (fair columns), and NOT of iteration order, so any sharding or
/// shuffling of the grid leaves results untouched.
uint64_t GridCellSeed(uint64_t seed, std::string_view dataset,
                      std::string_view table);

/// Seed of the RNG stream handed to JoinMethod::Run for one cell: a pure
/// function of (seed, dataset, table, method). Distinct per method so
/// stochastic methods draw independent streams, and schedule-free so cells
/// can run on any worker in any order.
uint64_t GridCellSeed(uint64_t seed, std::string_view dataset,
                      std::string_view table, std::string_view method);

/// A declarative description of one experiment: a named grid of
/// datasets × methods × (implicitly) tables, one seed, a row scale for the
/// generated benchmarks, and an optional per-table example mutation (the
/// noise sweeps of §5.10). The ExperimentRunner expands the grid into
/// independent (dataset, method, table) cells and evaluates them with
/// per-cell RNG streams derived from GridCellSeed, so the produced
/// DatasetEvals are identical for any worker count or cell ordering.
struct ExperimentSpec {
  std::string name = "experiment";
  uint64_t seed = 0;
  /// Row scale for datasets added by name (AddNamedDataset/AddAllDatasets).
  double row_scale = 1.0;
  /// Applied to each table's example set before the method runs, drawing
  /// from the cell's (method-independent) split stream. Invoked concurrently
  /// from worker threads in a sharded run, so the callable must not touch
  /// shared mutable state (capture by value; derive randomness only from the
  /// passed Rng).
  ExampleTransform mutate_examples;

  struct DatasetEntry {
    std::string name;
    DatasetFactory factory;              // optional
    const Dataset* borrowed = nullptr;   // optional (must outlive Run)
    // Neither set: resolved via MakeDatasetByName(name, seed, row_scale).
  };
  struct MethodEntry {
    std::string name;
    /// Optional per-cell instantiation; preferred over Clone() only when the
    /// prototype cannot clone itself.
    MethodFactory factory;
    /// The serial-path instance and Clone() source. Created from `factory`
    /// on demand when absent.
    std::shared_ptr<JoinMethod> prototype;
  };

  std::vector<DatasetEntry> datasets;
  std::vector<MethodEntry> methods;

  /// Adds a generated benchmark under an explicit name.
  ExperimentSpec& AddDataset(std::string dataset_name, DatasetFactory factory);
  /// Adds a pre-built benchmark without copying it; `dataset` must outlive
  /// every Run of this spec.
  ExperimentSpec& AddDataset(const Dataset& dataset);
  /// Adds one of the §5.2 benchmarks by name ("WT", "SS", "KBWT", "Syn",
  /// "Syn-RP", "Syn-ST", "Syn-RV"), generated at Run time from this spec's
  /// seed and row_scale.
  ExperimentSpec& AddNamedDataset(std::string dataset_name);
  /// All seven §5.2 benchmarks.
  ExperimentSpec& AddAllDatasets();

  /// Adds a method owned by the spec; the entry is named prototype->name().
  ExperimentSpec& AddMethod(std::unique_ptr<JoinMethod> prototype);
  /// Adds a borrowed method (caller keeps ownership; must outlive Run).
  ExperimentSpec& AddMethod(JoinMethod* borrowed);
  /// Adds a method instantiated through `factory` (named explicitly because
  /// no instance exists yet).
  ExperimentSpec& AddMethod(std::string method_name, MethodFactory factory);
};

struct RunnerOptions {
  /// Worker threads the grid cells are sharded across. <= 1 runs every cell
  /// inline in canonical (dataset, method, table) order.
  int num_workers = 1;
  /// Print one stderr line as each (dataset, method) column completes — the
  /// heartbeat of long paper-scale driver runs. Off by default so library
  /// callers (EvaluateOnDataset, tests) stay silent.
  bool log_progress = false;
};

/// The merged output of one grid run. All metric fields are bit-identical
/// for any worker count; the `seconds` fields (wall-clock measurements) are
/// the only schedule-dependent values.
struct GridResult {
  std::vector<std::string> datasets;  // spec order
  std::vector<std::string> methods;   // spec order
  /// evals[d][m] — exactly what EvaluateOnDataset(methods[m], datasets[d])
  /// produces, with per_table in the dataset's table order.
  std::vector<std::vector<DatasetEval>> evals;

  int num_workers = 1;
  size_t num_cells = 0;
  double wall_seconds = 0.0;  // runner wall-clock (expansion to merge)
  double cell_seconds = 0.0;  // summed per-cell method wall-clock

  /// Lookup by names; aborts on an unknown pair.
  const DatasetEval& Eval(std::string_view dataset,
                          std::string_view method) const;
};

/// Expands an ExperimentSpec into independent (dataset, method, table) cells,
/// shards them across a util/thread_pool, and deterministically merges the
/// per-table evaluations back into DatasetEvals. Sharded methods get a fresh
/// instance per cell (JoinMethod::Clone, falling back to the entry's
/// factory); a method that supports neither keeps its prototype and has its
/// cells evaluated by a single worker in canonical order, so even stateful
/// uncloneable methods stay deterministic — just unsharded.
class ExperimentRunner {
 public:
  explicit ExperimentRunner(RunnerOptions options = {});

  GridResult Run(const ExperimentSpec& spec) const;

 private:
  RunnerOptions options_;
};

/// Worker-count override from $DTT_EVAL_WORKERS (bench binaries; CI shards
/// the reduced-grid smoke across 4 workers).
int EvalWorkersFromEnv(int fallback = 1);

}  // namespace dtt

#endif  // DTT_EVAL_RUNNER_H_
