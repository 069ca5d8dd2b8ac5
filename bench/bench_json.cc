#include "bench/bench_json.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "obs/metrics.h"

extern char** environ;

namespace dtt {
namespace bench {

std::vector<std::pair<std::string, std::string>> DttEnvOverrides() {
  // Pure output-location knobs: they never change results, and stamping
  // machine-local paths would make otherwise-identical runs incomparable
  // (the opposite of the stamp's purpose).
  constexpr const char* kPathOnly[] = {"DTT_BENCH_JSON"};
  std::vector<std::pair<std::string, std::string>> overrides;
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    if (std::strncmp(*env, "DTT_", 4) != 0) continue;
    const char* eq = std::strchr(*env, '=');
    if (eq == nullptr) continue;
    std::string key(*env, static_cast<size_t>(eq - *env));
    bool path_only = false;
    for (const char* skip : kPathOnly) path_only = path_only || key == skip;
    if (path_only) continue;
    overrides.emplace_back(std::move(key), std::string(eq + 1));
  }
  std::sort(overrides.begin(), overrides.end());
  return overrides;
}

namespace {

std::string EscapeString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += "\"";
  return out;
}

std::string RenderDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

JsonObject& JsonObject::Set(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, EscapeString(value));
  return *this;
}

JsonObject& JsonObject::Set(const std::string& key, const char* value) {
  return Set(key, std::string(value));
}

JsonObject& JsonObject::Set(const std::string& key, double value) {
  fields_.emplace_back(key, RenderDouble(value));
  return *this;
}

JsonObject& JsonObject::Set(const std::string& key, int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::Set(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

std::string JsonObject::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i) out += ",";
    out += EscapeString(fields_[i].first);
    out += ":";
    out += fields_[i].second;
  }
  out += "}";
  return out;
}

BenchJsonReporter::BenchJsonReporter(std::string bench_name)
    : bench_name_(std::move(bench_name)) {
  meta_.Set("schema_version", kBenchJsonSchemaVersion);
  meta_.Set("host_threads",
            static_cast<int64_t>(std::thread::hardware_concurrency()));
  for (const auto& [key, value] : DttEnvOverrides()) {
    meta_.Set("env_" + key, value);
  }
}

JsonObject& BenchJsonReporter::AddRun(const std::string& name) {
  runs_.emplace_back();
  runs_.back().Set("name", name);
  return runs_.back();
}

namespace {

/// The process-wide metrics snapshot flattened into one scalar JSON object
/// (the document's "metrics" block). Zero-count histograms are dropped:
/// their percentiles would be meaningless zeros.
JsonObject RenderMetricsBlock() {
  const obs::MetricsSnapshot snap = obs::GlobalMetrics().Snapshot();
  JsonObject block;
  for (const auto& [name, value] : snap.counters) {
    block.Set(name, static_cast<int64_t>(value));
  }
  for (const auto& [name, value] : snap.gauges) {
    block.Set(name, value);
  }
  for (const auto& [name, hist] : snap.histograms) {
    if (hist.count == 0) continue;
    block.Set(name + ".count", static_cast<int64_t>(hist.count));
    block.Set(name + ".mean", hist.Mean());
    block.Set(name + ".p50", hist.Percentile(0.50));
    block.Set(name + ".p95", hist.Percentile(0.95));
    block.Set(name + ".p99", hist.Percentile(0.99));
    block.Set(name + ".max", hist.max);
  }
  return block;
}

}  // namespace

std::string BenchJsonReporter::ToJson() const {
  std::string out = "{\"bench\":" + EscapeString(bench_name_);
  out += ",\"meta\":" + meta_.ToJson();
  out += ",\"metrics\":" + RenderMetricsBlock().ToJson();
  out += ",\"runs\":[";
  for (size_t i = 0; i < runs_.size(); ++i) {
    if (i) out += ",";
    out += runs_[i].ToJson();
  }
  out += "]}";
  return out;
}

namespace {

/// Unescapes the string forms EscapeString produces (enough for benchmark
/// and field names; \uXXXX collapses to '?').
std::string Unescape(const std::string& s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u':
        out += '?';
        i = i + 4 < s.size() ? i + 4 : s.size() - 1;
        break;
      default: out += s[i];
    }
  }
  return out;
}

}  // namespace

bool ReadBenchRuns(const std::string& path, std::vector<BenchRun>* runs) {
  runs->clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  const size_t runs_pos = text.find("\"runs\":[");
  if (runs_pos == std::string::npos) return false;
  size_t i = runs_pos + 8;
  // Walk the array: one flat {"key":value,...} object per run; strings may
  // contain any character (escaped), so track string state while scanning.
  while (i < text.size() && text[i] != ']') {
    if (text[i] != '{') {
      ++i;
      continue;
    }
    BenchRun run;
    ++i;  // past '{'
    while (i < text.size() && text[i] != '}') {
      if (text[i] == ',') {
        ++i;
        continue;
      }
      // Key (always a quoted string in our documents).
      if (text[i] != '"') return false;
      std::string key;
      ++i;
      while (i < text.size() && text[i] != '"') {
        if (text[i] == '\\' && i + 1 < text.size()) key += text[i++];
        key += text[i++];
      }
      ++i;  // closing quote
      if (i >= text.size() || text[i] != ':') return false;
      ++i;
      if (i < text.size() && text[i] == '"') {
        std::string value;
        ++i;
        while (i < text.size() && text[i] != '"') {
          if (text[i] == '\\' && i + 1 < text.size()) value += text[i++];
          value += text[i++];
        }
        ++i;
        if (Unescape(key) == "name") run.name = Unescape(value);
      } else {
        size_t end = i;
        while (end < text.size() && text[end] != ',' && text[end] != '}') {
          ++end;
        }
        const std::string value = text.substr(i, end - i);
        char* parse_end = nullptr;
        const double parsed = std::strtod(value.c_str(), &parse_end);
        if (parse_end != value.c_str()) {
          run.fields[Unescape(key)] = parsed;
        }
        i = end;
      }
    }
    if (i < text.size()) ++i;  // past '}'
    runs->push_back(std::move(run));
  }
  return i < text.size();  // reached the closing ']'
}

std::string BenchJsonReporter::Write(const std::string& path) const {
  std::string target = path;
  if (target.empty()) {
    const char* env = std::getenv("DTT_BENCH_JSON");
    target = (env != nullptr && env[0] != '\0') ? env
                                                : bench_name_ + ".json";
  }
  std::FILE* f = std::fopen(target.c_str(), "w");
  if (f == nullptr) return "";
  const std::string doc = ToJson() + "\n";
  const size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  const bool ok = std::fclose(f) == 0 && written == doc.size();
  return ok ? target : "";
}

}  // namespace bench
}  // namespace dtt
