#ifndef DTT_OBS_TRACE_H_
#define DTT_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace dtt {
namespace obs {

/// Chrome-trace-event span recording. Disabled by default; when enabled
/// (DTT_TRACE=<path> at startup, or StartTracing), RAII TraceSpans buffer
/// complete ("X") events in per-thread logs — tagged with the thread's
/// CurrentThreadTag() — and StopTracing flushes one JSON document loadable
/// in Perfetto / chrome://tracing. The disabled fast path is a single
/// relaxed atomic load per span (no clock read, no allocation):
/// instrumentation may sit on per-step decode loops without perturbing
/// benchmarks (<1% on BM_GenerateBatch, guarded by
/// ObsTraceTest.DisabledSpanOverhead).
///
/// Tracing never participates in computation — spans only observe — so
/// every bit-exactness contract in the tree holds identically with
/// tracing on or off.

using TraceClock = std::chrono::steady_clock;

/// True when spans are being recorded. The hot-path gate: relaxed load.
bool TracingEnabled();

/// Starts buffering events; `path` is where StopTracing (or process exit,
/// via an atexit hook registered here) writes the JSON document. A second
/// call while tracing replaces the path but keeps buffered events.
Status StartTracing(const std::string& path);

/// Stops recording, writes the buffered events to the StartTracing path,
/// and clears the buffers. No-op (OK) when tracing was never started.
Status StopTracing();

/// Microseconds since the trace epoch (process start of the recorder) for
/// an arbitrary steady_clock time point — for events whose true start was
/// stamped before the emitting code ran (queue waits).
double TraceTimestampUs(TraceClock::time_point tp);

/// One pre-rendered span argument: `value` is the exact JSON text to emit
/// (already quoted/escaped for strings). Build via IntArg/StrArg/F64Arg.
struct TraceArg {
  std::string key;
  std::string value;
};

TraceArg IntArg(std::string_view key, int64_t value);
TraceArg F64Arg(std::string_view key, double value);
TraceArg StrArg(std::string_view key, std::string_view value);

/// RAII scoped span: records a complete event [construction, destruction)
/// on the calling thread. `category` and `name` must be string literals or
/// otherwise outlive the span. All methods no-op when tracing is off.
class TraceSpan {
 public:
  TraceSpan(const char* category, const char* name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// False when tracing is off — lets callers skip arg computation.
  bool enabled() const { return enabled_; }

  void Arg(std::string_view key, int64_t value);
  void Arg(std::string_view key, std::string_view value);

 private:
  const char* category_;
  const char* name_;
  bool enabled_;
  TraceClock::time_point start_;
  std::vector<TraceArg> args_;
};

/// Complete event with explicit endpoints, for durations measured after
/// the fact (a task's queue wait is only known at dispatch). No-op when
/// tracing is off.
void EmitSpan(const char* category, const char* name,
              TraceClock::time_point start, TraceClock::time_point end,
              std::vector<TraceArg> args = {});

/// Async ("b"/"e") events tying one logical operation across threads:
/// begin and end match on (category, name, id). A request's async pair
/// brackets its whole lifetime while the stage spans (submit, queue wait,
/// batch, complete) carry the id as an arg — the connected span tree.
void EmitAsyncBegin(const char* category, const char* name, uint64_t id);
void EmitAsyncEnd(const char* category, const char* name, uint64_t id);

}  // namespace obs
}  // namespace dtt

#endif  // DTT_OBS_TRACE_H_
