#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>

#include "util/logging.h"

namespace dtt {
namespace obs {

namespace {

/// One buffered trace event. `dur_us` is meaningful for ph == 'X', `id`
/// for the async phases 'b' / 'e'.
struct Event {
  std::string name;
  std::string cat;
  char ph = 'X';
  double ts_us = 0.0;
  double dur_us = 0.0;
  uint64_t id = 0;
  uint32_t tid = 0;
  std::vector<TraceArg> args;
};

/// Per-thread event buffer. Appends take the buffer's own mutex — only
/// contended against a concurrent flush, never against other threads'
/// appends — and only when tracing is enabled, so the disabled fast path
/// never touches a lock.
struct ThreadLog {
  std::mutex mu;
  std::vector<Event> events;
};

/// Appends `s` as a quoted JSON string (shorthand escapes for the common
/// control characters, \uXXXX for the rest). Shared by the event renderer
/// and StrArg so every string in the document escapes identically.
void AppendEscaped(std::string_view s, std::string* out) {
  *out += '"';
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

class Recorder {
 public:
  static Recorder& Get() {
    // Leaked: thread_local pointers into logs_ and the atexit flush hook
    // must stay valid through static destruction.
    static Recorder* recorder = new Recorder();
    return *recorder;
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  Status Start(const std::string& path) {
    std::lock_guard<std::mutex> lock(mu_);
    if (path.empty()) {
      return Status::InvalidArgument("trace path must not be empty");
    }
    path_ = path;
    enabled_.store(true, std::memory_order_relaxed);
    if (!atexit_registered_) {
      atexit_registered_ = true;
      std::atexit([] {
        Status st = StopTracing();
        if (!st.ok()) {
          std::fprintf(stderr, "dtt: trace flush at exit failed: %s\n",
                       st.message().c_str());
        }
      });
    }
    return Status::OK();
  }

  Status Stop() {
    std::string path;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!enabled_.load(std::memory_order_relaxed)) return Status::OK();
      enabled_.store(false, std::memory_order_relaxed);
      path = path_;
    }
    const std::string json = Render();
    Clear();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return Status::IOError("cannot open trace path " + path);
    }
    const size_t written = std::fwrite(json.data(), 1, json.size(), f);
    const bool ok = std::fclose(f) == 0 && written == json.size();
    if (!ok) return Status::IOError("short write to trace path " + path);
    return Status::OK();
  }

  void Append(Event event) {
    ThreadLog* log = LocalLog();
    std::lock_guard<std::mutex> lock(log->mu);
    log->events.push_back(std::move(event));
  }

  double ToUs(TraceClock::time_point tp) const {
    return std::chrono::duration<double, std::micro>(tp - epoch_).count();
  }

  std::string Render() {
    std::vector<Event> all;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& log : logs_) {
        std::lock_guard<std::mutex> log_lock(log->mu);
        all.insert(all.end(), log->events.begin(), log->events.end());
      }
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const Event& a, const Event& b) {
                       return a.ts_us < b.ts_us;
                     });
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (size_t i = 0; i < all.size(); ++i) {
      if (i) out += ",\n";
      RenderEvent(all[i], &out);
    }
    out += "]}\n";
    return out;
  }

 private:
  Recorder() : epoch_(TraceClock::now()) {}

  ThreadLog* LocalLog() {
    thread_local ThreadLog* log = nullptr;
    if (log == nullptr) {
      auto owned = std::make_unique<ThreadLog>();
      log = owned.get();
      std::lock_guard<std::mutex> lock(mu_);
      logs_.push_back(std::move(owned));
    }
    return log;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& log : logs_) {
      std::lock_guard<std::mutex> log_lock(log->mu);
      log->events.clear();
    }
  }

  static void RenderEvent(const Event& e, std::string* out) {
    char buf[64];
    *out += "{\"name\":";
    AppendEscaped(e.name, out);
    *out += ",\"cat\":";
    AppendEscaped(e.cat, out);
    *out += ",\"ph\":\"";
    *out += e.ph;
    *out += '"';
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f", e.ts_us);
    *out += buf;
    if (e.ph == 'X') {
      std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f", e.dur_us);
      *out += buf;
    }
    if (e.ph == 'b' || e.ph == 'e') {
      std::snprintf(buf, sizeof(buf), ",\"id\":%llu",
                    static_cast<unsigned long long>(e.id));
      *out += buf;
    }
    std::snprintf(buf, sizeof(buf), ",\"pid\":1,\"tid\":%u", e.tid);
    *out += buf;
    if (!e.args.empty()) {
      *out += ",\"args\":{";
      for (size_t i = 0; i < e.args.size(); ++i) {
        if (i) *out += ',';
        AppendEscaped(e.args[i].key, out);
        *out += ':';
        *out += e.args[i].value;  // pre-rendered JSON
      }
      *out += '}';
    }
    *out += '}';
  }

  std::atomic<bool> enabled_{false};
  const TraceClock::time_point epoch_;
  std::mutex mu_;  // guards logs_ registration, path_, atexit flag
  std::deque<std::unique_ptr<ThreadLog>> logs_;
  std::string path_;
  bool atexit_registered_ = false;
};

/// DTT_TRACE=<path> enables tracing from process start; the document is
/// flushed by the atexit hook StartTracing registers. Runs during static
/// initialization of this translation unit — any binary linking an
/// instrumented call site pulls it in.
[[maybe_unused]] const bool g_env_initialized = [] {
  const char* env = std::getenv("DTT_TRACE");
  if (env != nullptr && env[0] != '\0') {
    Status st = Recorder::Get().Start(env);
    if (!st.ok()) {
      std::fprintf(stderr, "dtt: DTT_TRACE: %s\n", st.message().c_str());
    }
  }
  return true;
}();

std::string RenderF64(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

bool TracingEnabled() { return Recorder::Get().enabled(); }

Status StartTracing(const std::string& path) {
  return Recorder::Get().Start(path);
}

Status StopTracing() { return Recorder::Get().Stop(); }

double TraceTimestampUs(TraceClock::time_point tp) {
  return Recorder::Get().ToUs(tp);
}

TraceArg IntArg(std::string_view key, int64_t value) {
  return TraceArg{std::string(key), std::to_string(value)};
}

TraceArg F64Arg(std::string_view key, double value) {
  return TraceArg{std::string(key), RenderF64(value)};
}

TraceArg StrArg(std::string_view key, std::string_view value) {
  std::string rendered;
  AppendEscaped(value, &rendered);
  return TraceArg{std::string(key), std::move(rendered)};
}

TraceSpan::TraceSpan(const char* category, const char* name)
    : category_(category), name_(name), enabled_(TracingEnabled()) {
  if (enabled_) start_ = TraceClock::now();
}

TraceSpan::~TraceSpan() {
  if (!enabled_) return;
  const TraceClock::time_point end = TraceClock::now();
  Event event;
  event.name = name_;
  event.cat = category_;
  event.ph = 'X';
  event.ts_us = TraceTimestampUs(start_);
  event.dur_us = std::chrono::duration<double, std::micro>(end - start_)
                     .count();
  event.tid = CurrentThreadTag();
  event.args = std::move(args_);
  Recorder::Get().Append(std::move(event));
}

void TraceSpan::Arg(std::string_view key, int64_t value) {
  if (enabled_) args_.push_back(IntArg(key, value));
}

void TraceSpan::Arg(std::string_view key, std::string_view value) {
  if (enabled_) args_.push_back(StrArg(key, value));
}

void EmitSpan(const char* category, const char* name,
              TraceClock::time_point start, TraceClock::time_point end,
              std::vector<TraceArg> args) {
  if (!TracingEnabled()) return;
  Event event;
  event.name = name;
  event.cat = category;
  event.ph = 'X';
  event.ts_us = TraceTimestampUs(start);
  event.dur_us =
      std::max(0.0,
               std::chrono::duration<double, std::micro>(end - start).count());
  event.tid = CurrentThreadTag();
  event.args = std::move(args);
  Recorder::Get().Append(std::move(event));
}

namespace {

void EmitAsync(const char* category, const char* name, char ph, uint64_t id) {
  if (!TracingEnabled()) return;
  Event event;
  event.name = name;
  event.cat = category;
  event.ph = ph;
  event.ts_us = TraceTimestampUs(TraceClock::now());
  event.id = id;
  event.tid = CurrentThreadTag();
  Recorder::Get().Append(std::move(event));
}

}  // namespace

void EmitAsyncBegin(const char* category, const char* name, uint64_t id) {
  EmitAsync(category, name, 'b', id);
}

void EmitAsyncEnd(const char* category, const char* name, uint64_t id) {
  EmitAsync(category, name, 'e', id);
}

}  // namespace obs
}  // namespace dtt
