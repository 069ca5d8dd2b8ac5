// Sample statistics and result reporting for perfbench.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MillisBetween(Clock::time_point a, Clock::time_point b);

/// Exact nearest-rank percentile of `samples` (rank ceil(p * n), clamped to
/// [1, n]); 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

double Median(std::vector<double> samples);

/// One reported metric. `samples` is the number of measurements behind the
/// value (0 when it is a single count or ratio of counts).
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  uint64_t samples = 0;
  std::string note;
};

/// Latency percentiles exactly from every sample. The p99 is marked
/// supported only when at least ten samples lie beyond it; otherwise the
/// printed note says how far the sample reaches.
void AddLatencyMetrics(const std::string& prefix,
                       const std::vector<double>& latencies_ms,
                       bool with_p50, std::vector<Metric>* out);

/// Counter / histogram deltas of the process-wide registry between two
/// snapshots, so every workload reports only its own activity.
class MetricsDelta {
 public:
  MetricsDelta(const dtt::obs::MetricsSnapshot& before,
               const dtt::obs::MetricsSnapshot& after)
      : before_(before), after_(after) {}

  uint64_t Counter(const std::string& name) const;
  /// Nearest-rank percentile of the histogram's delta, resolved to the
  /// geometric midpoint of its bucket (the registry's own resolution).
  double HistogramPercentile(const std::string& name, double p) const;
  uint64_t HistogramCount(const std::string& name) const;

 private:
  std::vector<uint64_t> BucketDelta(const std::string& name) const;

  dtt::obs::MetricsSnapshot before_;
  dtt::obs::MetricsSnapshot after_;
};

/// FNV-1a over a sequence of strings, with separators, as a hex string.
class Digest {
 public:
  void Add(const std::string& value);
  std::string Hex() const;

 private:
  uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Peak resident set of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
