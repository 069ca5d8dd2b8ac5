// Bench-side tracing: an in-memory span log plus decorators of the public
// TextToTextModel and TokenStreamDecoder interfaces that time every call into
// a backend from outside. The decorators forward name(), thread_safe(),
// deterministic() and NewStreamDecoder(), so the serve layer routes, caches
// and batches exactly as it does for the bare model, and outputs are
// unchanged.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "models/model.h"
#include "stats.h"

namespace perfbench {

/// The backends the workloads run, by bench label (the models' own name()s
/// do not tell greedy from beam).
enum class Backend : uint8_t { kDtt, kNeuralGreedy, kNeuralBeam4, kNone };
constexpr Backend kAllBackends[] = {Backend::kDtt, Backend::kNeuralGreedy,
                                    Backend::kNeuralBeam4};
const char* BackendLabel(Backend backend);

/// What a span times. Model calls and decoder calls carry their backend.
enum class SpanKind : uint8_t {
  kModelCall,     // TextToTextModel::Transform / TransformBatch; a = prompts
  kPrepare,       // TokenStreamDecoder::Prepare; a = input tokens
  kAdmit,         // TokenStreamDecoder::Admit; a = group, b = tokens,
                  // c = padded tokens
  kStep,          // TokenStreamDecoder::Step; a = live rows
  kSubmit,        // TransformService::Submit on the generator thread
  kTransformAll,  // DttPipeline::TransformAll; a = rows
  kJoin,          // EditDistanceJoiner::Join; a = rows
};
const char* SpanName(SpanKind kind);

struct Span {
  SpanKind kind;
  Backend backend;
  uint32_t thread;
  Clock::time_point start;
  Clock::time_point end;
  int64_t a = 0;
  int64_t b = 0;
  int64_t c = 0;

  double Millis() const { return MillisBetween(start, end); }
};

/// Spans kept in memory (one mutex-guarded vector; a few thousand spans per
/// second at most) and written out once, after the run.
class SpanLog {
 public:
  void Record(Span span);
  std::vector<Span> spans() const;

  /// Milliseconds of [t0, t1] covered by at least one span, on any thread.
  static double CoveredMillis(const std::vector<Span>& spans,
                              Clock::time_point t0, Clock::time_point t1);

  /// Chrome trace-event JSON (load in chrome://tracing or Perfetto).
  static bool WriteChromeTrace(const std::vector<Span>& spans,
                               Clock::time_point origin,
                               const std::string& path);

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times [start, now) into `log` when `log` is non-null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanKind kind, Backend backend = Backend::kNone,
             int64_t a = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  Span span_;
};

/// Wraps `model` in the timing decorator when `log` is non-null; returns it
/// unchanged otherwise (the untraced run measures the bare program).
std::shared_ptr<dtt::TextToTextModel> MaybeTimed(
    std::shared_ptr<dtt::TextToTextModel> model, Backend backend,
    SpanLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
