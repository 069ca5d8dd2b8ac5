#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

namespace {

uint64_t NearestRank(uint64_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n));
  return std::clamp<uint64_t>(static_cast<uint64_t>(rank), 1, n);
}

/// Samples lying strictly beyond the nearest-rank p-th percentile of n.
uint64_t SamplesBeyond(uint64_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const uint64_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) { return Percentile(samples, 0.5); }

void AddLatencyMetrics(const std::string& prefix,
                       const std::vector<double>& latencies_ms,
                       bool with_p50, std::vector<Metric>* out) {
  const uint64_t n = latencies_ms.size();
  if (with_p50) {
    out->push_back({prefix + "_p50_ms", "ms", Percentile(latencies_ms, 0.50),
                    n, ""});
  }
  const uint64_t beyond = SamplesBeyond(n, 0.99);
  std::string note = std::to_string(beyond) + " beyond";
  if (beyond < 10) {
    note += "; UNSUPPORTED: fewer than 10 samples beyond p99";
  }
  out->push_back(
      {prefix + "_p99_ms", "ms", Percentile(latencies_ms, 0.99), n, note});
}

uint64_t MetricsDelta::Counter(const std::string& name) const {
  auto value = [&name](const dtt::obs::MetricsSnapshot& s) -> uint64_t {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };
  return value(after_) - value(before_);
}

std::vector<uint64_t> MetricsDelta::BucketDelta(const std::string& name) const {
  std::vector<uint64_t> delta;
  auto after = after_.histograms.find(name);
  if (after == after_.histograms.end()) return delta;
  delta = after->second.buckets;
  auto before = before_.histograms.find(name);
  if (before != before_.histograms.end()) {
    for (size_t i = 0; i < delta.size() && i < before->second.buckets.size();
         ++i) {
      delta[i] -= before->second.buckets[i];
    }
  }
  return delta;
}

uint64_t MetricsDelta::HistogramCount(const std::string& name) const {
  const std::vector<uint64_t> delta = BucketDelta(name);
  return std::accumulate(delta.begin(), delta.end(), uint64_t{0});
}

double MetricsDelta::HistogramPercentile(const std::string& name,
                                         double p) const {
  const std::vector<uint64_t> delta = BucketDelta(name);
  const uint64_t n = std::accumulate(delta.begin(), delta.end(), uint64_t{0});
  if (n == 0) return 0.0;
  const uint64_t rank = NearestRank(n, p);
  uint64_t seen = 0;
  for (size_t i = 0; i < delta.size(); ++i) {
    seen += delta[i];
    if (seen < rank) continue;
    if (i == 0) return 0.0;
    using dtt::obs::Histogram;
    const double hi = Histogram::UpperBound(static_cast<int>(i));
    return hi / std::sqrt(Histogram::RelativeWidth());
  }
  return 0.0;
}

void Digest::Add(const std::string& value) {
  for (unsigned char c : value) {
    state_ ^= c;
    state_ *= 0x100000001b3ULL;
  }
  state_ ^= 0xff;  // separator: ("ab","c") != ("a","bc")
  state_ *= 0x100000001b3ULL;
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(state_));
  return buf;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
