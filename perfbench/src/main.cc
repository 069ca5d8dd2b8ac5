// perfbench: the repository benchmark program.
//
//   perfbench --workload <stream_longtail|serve_mixed|table_join>
//             --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//
// --trace 0 runs the workload once on the bare program and reports the
// end-to-end metrics. --trace 1 runs it untraced, then again with the bench-
// side timing decorators on, checks both passes produced the same outputs,
// and reports the per-layer metrics plus the tracing overhead; the spans are
// written to <workdir>/trace_<workload>_seed<n>.json after the run.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. Exit code 0 = correct outputs and a valid run,
// 1 = an output mismatch or error, 2 = bad usage or set-up failure,
// 3 = the load generator fell behind its schedule.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workload_common.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <stream_longtail|serve_mixed|"
               "table_join> --seed <n> --seconds <s> --trace <0|1> "
               "[--workdir <dir>]\n");
  return 2;
}

WorkloadFn Lookup(const std::string& name) {
  if (name == "stream_longtail") return RunStreamLongtail;
  if (name == "serve_mixed") return RunServeMixed;
  if (name == "table_join") return RunTableJoin;
  return nullptr;
}


void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void PrintMetric(const Metric& m) {
  std::printf("  %-34s %14.4f %-6s n=%-8llu %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), static_cast<unsigned long long>(m.samples),
              m.note.c_str());
}

void PrintPass(const char* title, const WorkloadResult& r) {
  std::printf("%s\n", title);
  for (const std::string& note : r.notes) std::printf("  %s\n", note.c_str());
  const double fail_rate =
      r.attempted == 0 ? 0.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  PrintMetric({"fail_rate", "ratio", fail_rate, r.attempted,
               "(rejected + errored + mismatched) / attempted"});
  for (const Metric& m : r.printed) PrintMetric(m);
}

int Main(int argc, char** argv) {
  RunConfig config;
  config.workdir = ".bench_build/perfbench/run";
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else {
      return Usage();
    }
  }
  const WorkloadFn run = Lookup(config.workload);
  if (run == nullptr || config.seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(config.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 config.workdir.c_str(), ec.message().c_str());
    return 2;
  }
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              trace);

  const WorkloadResult untraced = run(config, nullptr);
  PrintPass("untraced pass", untraced);
  bool correct = untraced.correct;
  bool valid = untraced.valid;
  uint64_t attempted = untraced.attempted;
  uint64_t failed = untraced.failed;
  std::vector<Metric> metrics;

  if (trace == 0) {
    metrics = untraced.end_to_end;
  } else {
    SpanLog log;
    RunConfig traced_config = config;
    traced_config.verify = false;  // compared with the untraced pass instead
    const Clock::time_point origin = Clock::now();
    const WorkloadResult traced = run(traced_config, &log);
    PrintPass("traced pass", traced);
    const bool same = traced.digest == untraced.digest;
    std::printf("  outputs traced vs untraced: %s (digest %s vs %s)\n",
                same ? "identical" : "DIFFERENT", traced.digest.c_str(),
                untraced.digest.c_str());
    correct = correct && traced.correct && same;
    valid = valid && traced.valid;
    attempted += traced.attempted;
    failed += traced.failed;
    metrics = traced.per_layer;
    metrics.push_back({"trace.untraced_rows_per_s", "1/s",
                       untraced.rows_per_s, 0, ""});
    metrics.push_back(
        {"trace.traced_rows_per_s", "1/s", traced.rows_per_s, 0, ""});
    metrics.push_back({"trace.overhead_share", "ratio",
                       untraced.rows_per_s > 0.0
                           ? 1.0 - traced.rows_per_s / untraced.rows_per_s
                           : 0.0,
                       0, "1 - traced / untraced rows_per_s"});
    const std::string path =
        (std::filesystem::path(config.workdir) /
         ("trace_" + config.workload + "_seed" + std::to_string(config.seed) +
          ".json"))
            .string();
    if (SpanLog::WriteChromeTrace(traced.spans, origin, path)) {
      std::printf("  %zu spans written to %s\n", traced.spans.size(),
                  path.c_str());
    }
  }

  std::printf("%s metrics\n", trace == 0 ? "end-to-end" : "per-layer");
  for (const Metric& m : metrics) PrintMetric(m);
  if (!correct) std::printf("FAIL: outputs differ from the reference\n");
  if (!valid) std::printf("INVALID: the load generator fell behind\n");
  std::fflush(stdout);
  PrintJson(correct, attempted, failed, metrics);
  if (!correct) return 1;
  return valid ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
