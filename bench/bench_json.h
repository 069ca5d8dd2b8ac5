#ifndef DTT_BENCH_BENCH_JSON_H_
#define DTT_BENCH_BENCH_JSON_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace dtt {
namespace bench {

/// Layout version of the documents BenchJsonReporter writes; bumped whenever
/// fields move or change meaning so perf trajectories recorded on different
/// machines/PRs can filter for comparable documents. Version 2 added the
/// automatic meta stamp (schema_version, host_threads, env_DTT_*); version 3
/// added the "metrics" block (a flattened snapshot of the process-wide
/// obs::MetricsRegistry, taken when the document is rendered); version 4
/// dropped the GEMM-provider stamp when the providers were deleted.
inline constexpr int64_t kBenchJsonSchemaVersion = 4;

/// The DTT_* environment overrides in effect, sorted by name — the knobs
/// (row scale, worker counts, sweep grids, ...) that make two runs of the
/// same bench incomparable when they differ. Stamped into every document.
/// The pure output-location knob DTT_BENCH_JSON is excluded: it never
/// affects results.
std::vector<std::pair<std::string, std::string>> DttEnvOverrides();

/// A flat ordered JSON object of scalar fields.
class JsonObject {
 public:
  JsonObject& Set(const std::string& key, const std::string& value);
  JsonObject& Set(const std::string& key, const char* value);
  JsonObject& Set(const std::string& key, double value);
  JsonObject& Set(const std::string& key, int64_t value);
  JsonObject& Set(const std::string& key, int value) {
    return Set(key, static_cast<int64_t>(value));
  }
  JsonObject& Set(const std::string& key, bool value);

  /// Rendered form, e.g. {"name":"neural_serial","seconds":1.25}.
  std::string ToJson() const;

 private:
  // Values are stored pre-rendered (quoted/escaped for strings).
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Collects one machine-readable JSON document per bench run so perf deltas
/// can be tracked across PRs instead of eyeballed from stdout tables:
///
///   {"bench": "<name>", "meta": {...}, "metrics": {...}, "runs": [{...}, ...]}
///
/// "metrics" is a flat scalar object holding the process-wide
/// obs::MetricsRegistry snapshot at render time: counters/gauges under
/// their registry names, histograms flattened to <name>.count / .mean /
/// .p50 / .p95 / .p99 / .max (histograms with zero records are omitted).
///
/// Every run is a flat object of scalars (wall-clock seconds, rows/sec,
/// batch size, thread count, ...). Write() drops the document next to the
/// binary as <name>.json, or wherever $DTT_BENCH_JSON points.
class BenchJsonReporter {
 public:
  /// Stamps `meta` with the schema version, the host's hardware thread
  /// count, and every DTT_* environment override in effect (as env_<NAME>
  /// fields), so documents from different machines/configs are comparable.
  explicit BenchJsonReporter(std::string bench_name);

  /// Top-level metadata fields ("meta" object).
  JsonObject& meta() { return meta_; }

  /// Appends a run named `name` and returns it for field population.
  JsonObject& AddRun(const std::string& name);

  std::string ToJson() const;

  /// Writes the document to `path` (default: $DTT_BENCH_JSON if set, else
  /// "<bench_name>.json" in the working directory). Returns the path
  /// written, or an empty string on I/O failure.
  std::string Write(const std::string& path = "") const;

 private:
  std::string bench_name_;
  JsonObject meta_;
  std::deque<JsonObject> runs_;  // deque: AddRun references stay valid
};

/// One run parsed back out of a document this module wrote.
struct BenchRun {
  std::string name;
  std::map<std::string, double> fields;  // numeric scalar fields only
};

/// Minimal reader for the documents BenchJsonReporter writes (flat scalar
/// runs): returns each entry of the "runs" array with its name and numeric
/// fields. Returns false (with runs cleared) when the file is missing or
/// not in the expected shape. Used by the perf-baseline smoke check.
bool ReadBenchRuns(const std::string& path, std::vector<BenchRun>* runs);

}  // namespace bench
}  // namespace dtt

#endif  // DTT_BENCH_BENCH_JSON_H_
