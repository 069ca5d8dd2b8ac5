#include "probes.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

uint32_t ThreadTag() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t tag = next.fetch_add(1);
  return tag;
}

class TimedStreamDecoder : public dtt::TokenStreamDecoder {
 public:
  TimedStreamDecoder(std::unique_ptr<dtt::TokenStreamDecoder> inner,
                     Backend backend, SpanLog* log)
      : inner_(std::move(inner)), backend_(backend), log_(log) {}

  dtt::Result<dtt::PreparedPrompt> Prepare(
      const dtt::Prompt& prompt) const override {
    Span span{SpanKind::kPrepare, backend_, ThreadTag(), Clock::now(), {}};
    dtt::Result<dtt::PreparedPrompt> prepared = inner_->Prepare(prompt);
    span.end = Clock::now();
    if (prepared.ok()) {
      span.a = static_cast<int64_t>(prepared.value().input_ids.size());
    }
    log_->Record(span);
    return prepared;
  }

  std::vector<int> Admit(
      const std::vector<dtt::PreparedPrompt>& group) override {
    Span span{SpanKind::kAdmit, backend_, ThreadTag(), Clock::now(), {}};
    std::vector<int> slots = inner_->Admit(group);
    span.end = Clock::now();
    int64_t tokens = 0;
    int64_t longest = 0;
    for (const dtt::PreparedPrompt& p : group) {
      const auto len = static_cast<int64_t>(p.input_ids.size());
      tokens += len;
      longest = std::max(longest, len);
    }
    span.a = static_cast<int64_t>(group.size());
    span.b = tokens;
    span.c = longest * static_cast<int64_t>(group.size());
    log_->Record(span);
    return slots;
  }

  std::vector<Finished> Step() override {
    Span span{SpanKind::kStep, backend_, ThreadTag(), Clock::now(), {}};
    span.a = inner_->active_slots();
    std::vector<Finished> finished = inner_->Step();
    span.end = Clock::now();
    log_->Record(span);
    return finished;
  }

  void Cancel(int slot) override { inner_->Cancel(slot); }
  int max_slots() const override { return inner_->max_slots(); }
  int active_slots() const override { return inner_->active_slots(); }

 private:
  std::unique_ptr<dtt::TokenStreamDecoder> inner_;
  Backend backend_;
  SpanLog* log_;
};

class TimedModel : public dtt::TextToTextModel {
 public:
  TimedModel(std::shared_ptr<dtt::TextToTextModel> inner, Backend backend,
             SpanLog* log)
      : inner_(std::move(inner)), backend_(backend), log_(log) {}

  std::string name() const override { return inner_->name(); }

  dtt::Result<std::string> Transform(const dtt::Prompt& prompt) override {
    ScopedSpan span(log_, SpanKind::kModelCall, backend_, 1);
    return inner_->Transform(prompt);
  }

  std::vector<dtt::Result<std::string>> TransformBatch(
      const std::vector<dtt::Prompt>& prompts) override {
    ScopedSpan span(log_, SpanKind::kModelCall, backend_,
                    static_cast<int64_t>(prompts.size()));
    return inner_->TransformBatch(prompts);
  }

  bool thread_safe() const override { return inner_->thread_safe(); }
  bool deterministic() const override { return inner_->deterministic(); }

  std::unique_ptr<dtt::TokenStreamDecoder> NewStreamDecoder(
      const dtt::StreamDecoderOptions& options) override {
    std::unique_ptr<dtt::TokenStreamDecoder> decoder =
        inner_->NewStreamDecoder(options);
    if (decoder == nullptr) return nullptr;
    return std::make_unique<TimedStreamDecoder>(std::move(decoder), backend_,
                                                log_);
  }

 private:
  std::shared_ptr<dtt::TextToTextModel> inner_;
  Backend backend_;
  SpanLog* log_;
};

}  // namespace

const char* BackendLabel(Backend backend) {
  switch (backend) {
    case Backend::kDtt:
      return "dtt";
    case Backend::kNeuralGreedy:
      return "neural_greedy";
    case Backend::kNeuralBeam4:
      return "neural_beam4";
    case Backend::kNone:
      break;
  }
  return "none";
}

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kModelCall:
      return "model.call";
    case SpanKind::kPrepare:
      return "nn.prepare";
    case SpanKind::kAdmit:
      return "nn.admit";
    case SpanKind::kStep:
      return "nn.step";
    case SpanKind::kSubmit:
      return "serve.submit";
    case SpanKind::kTransformAll:
      return "core.transform_all";
    case SpanKind::kJoin:
      return "core.join";
  }
  return "unknown";
}

void SpanLog::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double SpanLog::CoveredMillis(const std::vector<Span>& spans,
                              Clock::time_point t0, Clock::time_point t1) {
  std::vector<std::pair<Clock::time_point, Clock::time_point>> intervals;
  intervals.reserve(spans.size());
  for (const Span& s : spans) {
    const Clock::time_point lo = std::max(s.start, t0);
    const Clock::time_point hi = std::min(s.end, t1);
    if (lo < hi) intervals.emplace_back(lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  Clock::time_point run_lo{};
  Clock::time_point run_hi{};
  bool open = false;
  for (const auto& [lo, hi] : intervals) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) covered += MillisBetween(run_lo, run_hi);
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) covered += MillisBetween(run_lo, run_hi);
  return covered;
}

bool SpanLog::WriteChromeTrace(const std::vector<Span>& spans,
                               Clock::time_point origin,
                               const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double ts = MillisBetween(origin, s.start) * 1e3;
    const double dur = s.Millis() * 1e3;
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"a\":%lld,"
                 "\"b\":%lld,\"c\":%lld}}%s\n",
                 SpanName(s.kind), BackendLabel(s.backend), s.thread, ts, dur,
                 static_cast<long long>(s.a), static_cast<long long>(s.b),
                 static_cast<long long>(s.c),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanLog* log, SpanKind kind, Backend backend,
                       int64_t a)
    : log_(log), span_{kind, backend, 0, {}, {}, a} {
  if (log_ == nullptr) return;
  span_.thread = ThreadTag();
  span_.start = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end = Clock::now();
  log_->Record(span_);
}

std::shared_ptr<dtt::TextToTextModel> MaybeTimed(
    std::shared_ptr<dtt::TextToTextModel> model, Backend backend,
    SpanLog* log) {
  if (log == nullptr) return model;
  return std::make_shared<TimedModel>(std::move(model), backend, log);
}

}  // namespace perfbench
