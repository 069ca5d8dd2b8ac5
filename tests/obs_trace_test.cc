// Contracts of the obs/ trace-span layer: the disabled fast path is cheap
// enough to leave on per-step decode loops, the emitted document is valid
// Chrome trace JSON (checked by a minimal parser written here), spans nest
// properly per thread, a served request produces a connected span tree, and
// tracing never perturbs bit-exactness (decode and service outputs are
// identical with tracing on).
#include "obs/trace.h"

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "models/knowledge_lm.h"
#include "models/neural_model.h"
#include "models/pattern_induction.h"
#include "nn/transformer.h"
#include "serve/service.h"
#include "testing/temp_dir.h"
#include "text/vocab.h"

namespace dtt {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON parser — just enough for the documents trace.cc writes
// (objects, arrays, strings with escapes, numbers, booleans). The round
// trip through an independent reader is the test: if Perfetto-style
// consumers can't parse the output, neither can this.
// ---------------------------------------------------------------------------
struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> fields;

  const JsonValue& at(const std::string& key) const {
    static const JsonValue kMissing;
    auto it = fields.find(key);
    return it == fields.end() ? kMissing : it->second;
  }
  bool has(const std::string& key) const { return fields.count(key) != 0; }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue* out) {
    const bool ok = Value(out);
    SkipSpace();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(
               static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Value(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return Object(out);
    if (c == '[') return Array(out);
    if (c == '"') {
      out->kind = JsonValue::kString;
      return String(&out->str);
    }
    if (c == 't' || c == 'f') return Boolean(out);
    return Number(out);
  }
  bool Object(JsonValue* out) {
    out->kind = JsonValue::kObject;
    if (!Consume('{')) return false;
    if (Consume('}')) return true;
    do {
      SkipSpace();
      std::string key;
      if (!String(&key)) return false;
      if (!Consume(':')) return false;
      JsonValue value;
      if (!Value(&value)) return false;
      out->fields.emplace(std::move(key), std::move(value));
    } while (Consume(','));
    return Consume('}');
  }
  bool Array(JsonValue* out) {
    out->kind = JsonValue::kArray;
    if (!Consume('[')) return false;
    if (Consume(']')) return true;
    do {
      JsonValue value;
      if (!Value(&value)) return false;
      out->items.push_back(std::move(value));
    } while (Consume(','));
    return Consume(']');
  }
  bool String(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        switch (text_[pos_]) {
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u':
            if (pos_ + 4 >= text_.size()) return false;
            *out += '?';
            pos_ += 4;
            break;
          default: *out += text_[pos_];
        }
        ++pos_;
      } else {
        *out += text_[pos_++];
      }
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Boolean(JsonValue* out) {
    out->kind = JsonValue::kBool;
    if (text_.substr(pos_, 4) == "true") {
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      out->boolean = false;
      pos_ += 5;
      return true;
    }
    return false;
  }
  bool Number(JsonValue* out) {
    out->kind = JsonValue::kNumber;
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->number = std::stod(std::string(text_.substr(start, pos_ - start)));
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

JsonValue ParseTraceFile(const std::string& path) {
  const std::string text = ReadFile(path);
  EXPECT_FALSE(text.empty()) << "no trace written to " << path;
  JsonValue doc;
  JsonParser parser(text);
  EXPECT_TRUE(parser.Parse(&doc)) << "unparseable trace JSON";
  EXPECT_EQ(doc.kind, JsonValue::kObject);
  EXPECT_EQ(doc.at("traceEvents").kind, JsonValue::kArray);
  return doc;
}

// ---------------------------------------------------------------------------

using ObsTraceTest = ::dtt::testing::TempDirTest;

// The <1% overhead contract of the header: with tracing off, a span is one
// relaxed atomic load. The bound here is deliberately loose (well under a
// microsecond, vs single-digit nanoseconds expected) so the guard never
// flakes on loaded CI machines but still catches a clock read or an
// allocation sneaking into the disabled path.
TEST_F(ObsTraceTest, DisabledSpanOverhead) {
  ASSERT_FALSE(TracingEnabled())
      << "this test must run without DTT_TRACE set";
  constexpr int kSpans = 1 << 20;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kSpans; ++i) {
    TraceSpan span("test", "test.disabled");
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - t0;
  const double ns_per_span = elapsed.count() / kSpans;
  EXPECT_LT(ns_per_span, 1000.0) << "disabled TraceSpan costs " << ns_per_span
                                 << " ns — the off fast path regressed";
}

TEST_F(ObsTraceTest, DisabledEmittersAreNoOps) {
  ASSERT_FALSE(TracingEnabled());
  TraceSpan span("test", "test.span");
  EXPECT_FALSE(span.enabled());
  span.Arg("k", static_cast<int64_t>(1));
  EmitSpan("test", "test.emit", TraceClock::now(), TraceClock::now());
  EmitAsyncBegin("test", "test.async", 7);
  EmitAsyncEnd("test", "test.async", 7);
  EXPECT_EQ(StopTracing().ok(), true);  // no-op OK when never started
}

TEST_F(ObsTraceTest, StartTracingRejectsEmptyPath) {
  EXPECT_FALSE(StartTracing("").ok());
}

TEST_F(ObsTraceTest, RoundTripsWithPerThreadNesting) {
  const std::string path = TempFile("trace.json");
  ASSERT_TRUE(StartTracing(path).ok());
  // Two threads, each producing a parent span containing two children;
  // plus one async pair and one explicit-endpoint span on the main thread.
  auto worker = [](int tag) {
    TraceSpan parent("test", "test.parent");
    parent.Arg("worker", static_cast<int64_t>(tag));
    for (int i = 0; i < 2; ++i) {
      TraceSpan child("test", "test.child");
      child.Arg("i", static_cast<int64_t>(i));
      child.Arg("label", "a\"b\\c\n");  // exercises escaping
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  EmitAsyncBegin("test", "test.request", 99);
  std::thread t1(worker, 1), t2(worker, 2);
  t1.join();
  t2.join();
  EmitAsyncEnd("test", "test.request", 99);
  const auto start = TraceClock::now();
  EmitSpan("test", "test.explicit", start, start + std::chrono::microseconds(5),
           {IntArg("n", 3), F64Arg("x", 1.5), StrArg("s", "v")});
  ASSERT_TRUE(StopTracing().ok());
  ASSERT_FALSE(TracingEnabled());

  const JsonValue doc = ParseTraceFile(path);
  const auto& events = doc.at("traceEvents").items;
  // 2 threads x (1 parent + 2 children) + b + e + explicit = 9 events.
  ASSERT_EQ(events.size(), 9u);

  std::map<uint32_t, std::vector<const JsonValue*>> by_tid;
  int async_begin = 0, async_end = 0;
  for (const auto& e : events) {
    // Well-formed: every event names the required Chrome-trace fields.
    ASSERT_TRUE(e.has("name") && e.has("cat") && e.has("ph") && e.has("ts") &&
                e.has("pid") && e.has("tid"));
    const std::string ph = e.at("ph").str;
    if (ph == "X") {
      ASSERT_TRUE(e.has("dur"));
      EXPECT_GE(e.at("dur").number, 0.0);
      by_tid[static_cast<uint32_t>(e.at("tid").number)].push_back(&e);
    } else if (ph == "b") {
      ++async_begin;
      EXPECT_EQ(e.at("id").number, 99.0);
    } else if (ph == "e") {
      ++async_end;
      EXPECT_EQ(e.at("id").number, 99.0);
    }
  }
  EXPECT_EQ(async_begin, 1);
  EXPECT_EQ(async_end, 1);

  // Per-thread nesting: any two complete events on one thread are either
  // disjoint or one contains the other — RAII spans can never overlap
  // partially. (<= : a child's endpoints may coincide with its parent's.)
  int workers_with_parent = 0;
  for (const auto& [tid, spans] : by_tid) {
    for (size_t i = 0; i < spans.size(); ++i) {
      const double a0 = spans[i]->at("ts").number;
      const double a1 = a0 + spans[i]->at("dur").number;
      for (size_t j = i + 1; j < spans.size(); ++j) {
        const double b0 = spans[j]->at("ts").number;
        const double b1 = b0 + spans[j]->at("dur").number;
        const bool disjoint = a1 <= b0 || b1 <= a0;
        const bool a_in_b = b0 <= a0 && a1 <= b1;
        const bool b_in_a = a0 <= b0 && b1 <= a1;
        EXPECT_TRUE(disjoint || a_in_b || b_in_a)
            << "partial overlap on tid " << tid;
      }
    }
    // Each worker thread: one parent containing both children.
    int parents = 0, children = 0;
    for (const JsonValue* s : spans) {
      if (s->at("name").str == "test.parent") ++parents;
      if (s->at("name").str == "test.child") {
        ++children;
        EXPECT_EQ(s->at("args").at("label").str, "a\"b\\c\n");
      }
    }
    if (parents == 1 && children == 2) ++workers_with_parent;
  }
  EXPECT_EQ(workers_with_parent, 2);

  // The explicit-endpoint span carries its typed args through the round
  // trip.
  for (const auto& e : events) {
    if (e.at("name").str != "test.explicit") continue;
    EXPECT_EQ(e.at("args").at("n").number, 3.0);
    EXPECT_DOUBLE_EQ(e.at("args").at("x").number, 1.5);
    EXPECT_EQ(e.at("args").at("s").str, "v");
    EXPECT_NEAR(e.at("dur").number, 5.0, 0.01);
  }
}

// A single served request produces a connected span tree: the async
// serve.request pair brackets the lifetime, and the submit / queue-wait /
// complete stage spans all carry the request id as an arg — and serving
// with tracing on stays bit-identical to the untraced fixed-batch path.
TEST_F(ObsTraceTest, ServedRequestProducesConnectedSpanTree) {
  const std::vector<ExamplePair> examples = {
      {"Justin Trudeau", "jtrudeau"}, {"Stephen Harper", "sharper"},
      {"Paul Martin", "pmartin"}};
  const std::vector<std::string> sources = {"Kim Campbell", "Brian Mulroney",
                                            "Pierre Trudeau"};
  const uint64_t seed = 777;
  std::vector<std::shared_ptr<TextToTextModel>> models = {
      std::make_shared<PatternInductionModel>(),
      std::make_shared<KnowledgeLM>()};

  // Reference predictions, computed before tracing turns on.
  PipelineOptions popts;
  popts.decomposer.num_trials = 3;
  popts.batch_size = 4;
  DttPipeline pipeline(models, popts);
  Rng fixed_rng(seed);
  const auto fixed =
      pipeline.TransformAllFixedBatch(sources, examples, &fixed_rng);

  const std::string path = TempFile("serve_trace.json");
  ASSERT_TRUE(StartTracing(path).ok());
  serve::ServeOptions sopts;
  sopts.decomposer.num_trials = 3;
  Rng rng(seed);
  sopts.seed = rng.Next();
  sopts.num_threads = 2;
  sopts.backends = {{4, 0.0, {}}, {4, 0.0, {}}};
  std::vector<RowPrediction> served;
  {
    serve::TransformService service(models, sopts);
    std::vector<std::future<RowPrediction>> futures;
    for (const auto& source : sources) {
      auto admitted = service.Submit(source, examples);
      ASSERT_TRUE(admitted.ok());
      futures.push_back(std::move(admitted).value());
    }
    for (auto& f : futures) served.push_back(f.get());
  }
  ASSERT_TRUE(StopTracing().ok());

  // Bit-exactness with tracing on.
  ASSERT_EQ(served.size(), fixed.size());
  for (size_t r = 0; r < served.size(); ++r) {
    EXPECT_EQ(served[r].prediction, fixed[r].prediction) << "row " << r;
    EXPECT_EQ(served[r].support, fixed[r].support) << "row " << r;
  }

  const JsonValue doc = ParseTraceFile(path);
  const auto& events = doc.at("traceEvents").items;
  // Collect, per request id, which parts of the tree showed up.
  std::map<int64_t, int> begins, ends, submits, waits, completes;
  int batches = 0;
  for (const auto& e : events) {
    const std::string name = e.at("name").str;
    const std::string ph = e.at("ph").str;
    if (name == "serve.request" && ph == "b") {
      ++begins[static_cast<int64_t>(e.at("id").number)];
    } else if (name == "serve.request" && ph == "e") {
      ++ends[static_cast<int64_t>(e.at("id").number)];
    } else if (ph == "X" && e.has("args") && e.at("args").has("request")) {
      const int64_t req = static_cast<int64_t>(
          e.at("args").at("request").number);
      if (name == "serve.submit") ++submits[req];
      if (name == "serve.queue_wait") ++waits[req];
      if (name == "serve.complete") ++completes[req];
    }
    if (name == "serve.batch") ++batches;
  }
  EXPECT_GT(batches, 0);
  // Every submitted request: one async pair plus every stage span keyed to
  // the same id — the connected tree.
  ASSERT_EQ(begins.size(), sources.size());
  for (const auto& [req, n] : begins) {
    EXPECT_EQ(n, 1) << "request " << req;
    EXPECT_EQ(ends[req], 1) << "request " << req;
    EXPECT_EQ(submits[req], 1) << "request " << req;
    EXPECT_GT(waits[req], 0) << "request " << req;
    EXPECT_EQ(completes[req], 1) << "request " << req;
  }
}

// Decode outputs are bit-identical with tracing on, and the decode spans
// (batch-level and per-step) appear in the document.
TEST_F(ObsTraceTest, TracedDecodeIsBitExactWithUntraced) {
  nn::TransformerConfig cfg;
  cfg.dim = 16;
  cfg.num_heads = 2;
  cfg.ff_hidden = 32;
  cfg.encoder_layers = 1;
  cfg.decoder_layers = 1;
  cfg.max_len = 64;
  Rng init_rng(51);
  nn::Transformer model(cfg, &init_rng);
  Rng data_rng(52);
  std::vector<std::vector<int>> inputs;
  for (int len : {9, 5, 13}) {
    std::vector<int> ids;
    for (int i = 0; i < len; ++i) {
      ids.push_back(Vocab::ByteToken(
          static_cast<uint8_t>(data_rng.NextBounded(256))));
    }
    inputs.push_back(std::move(ids));
  }

  const auto greedy_ref = model.GenerateBatch(inputs, 12);
  const auto beam_ref = model.BeamDecodeBatch(inputs, 12, 2);

  const std::string path = TempFile("decode_trace.json");
  ASSERT_TRUE(StartTracing(path).ok());
  const auto greedy_traced = model.GenerateBatch(inputs, 12);
  const auto beam_traced = model.BeamDecodeBatch(inputs, 12, 2);
  ASSERT_TRUE(StopTracing().ok());

  EXPECT_EQ(greedy_traced, greedy_ref);
  EXPECT_EQ(beam_traced, beam_ref);

  const JsonValue doc = ParseTraceFile(path);
  int generate = 0, generate_steps = 0, beam = 0, beam_steps = 0;
  for (const auto& e : doc.at("traceEvents").items) {
    const std::string name = e.at("name").str;
    if (name == "nn.generate_batch") {
      ++generate;
      EXPECT_EQ(e.at("args").at("batch").number, 3.0);
    }
    if (name == "nn.generate_step") ++generate_steps;
    if (name == "nn.beam_batch") {
      ++beam;
      EXPECT_EQ(e.at("args").at("width").number, 2.0);
    }
    if (name == "nn.beam_step") ++beam_steps;
  }
  EXPECT_EQ(generate, 1);
  EXPECT_GT(generate_steps, 0);
  EXPECT_EQ(beam, 1);
  EXPECT_GT(beam_steps, 0);
}

// The graph-free encoder's nn.encode span (with its prompts/tokens args)
// nests inside the span of the engine that called it: a greedy batch and a
// beam batch.
TEST_F(ObsTraceTest, EncodeSpanNestsUnderEachEngine) {
  nn::TransformerConfig cfg;
  cfg.dim = 16;
  cfg.num_heads = 2;
  cfg.ff_hidden = 32;
  cfg.encoder_layers = 1;
  cfg.decoder_layers = 1;
  cfg.max_len = 64;
  Rng init_rng(61);
  nn::Transformer model(cfg, &init_rng);
  Rng data_rng(62);
  std::vector<std::vector<int>> inputs;
  for (int len : {9, 5, 13}) {
    std::vector<int> ids;
    for (int i = 0; i < len; ++i) {
      ids.push_back(Vocab::ByteToken(
          static_cast<uint8_t>(data_rng.NextBounded(256))));
    }
    inputs.push_back(std::move(ids));
  }

  const std::string path = TempFile("encode_trace.json");
  ASSERT_TRUE(StartTracing(path).ok());
  model.GenerateBatch(inputs, 4);
  model.BeamDecodeBatch(inputs, 4, 2);
  ASSERT_TRUE(StopTracing().ok());

  const JsonValue doc = ParseTraceFile(path);
  std::vector<const JsonValue*> encodes, parents;
  for (const auto& e : doc.at("traceEvents").items) {
    if (e.at("ph").str != "X") continue;
    const std::string name = e.at("name").str;
    if (name == "nn.encode") encodes.push_back(&e);
    if (name == "nn.generate_batch" || name == "nn.beam_batch") {
      parents.push_back(&e);
    }
  }
  ASSERT_EQ(encodes.size(), 2u);
  std::map<std::string, int> nested_under;
  for (const JsonValue* enc : encodes) {
    EXPECT_EQ(enc->at("args").at("prompts").number, 3.0);
    EXPECT_EQ(enc->at("args").at("tokens").number, 27.0);
    const double e0 = enc->at("ts").number;
    const double e1 = e0 + enc->at("dur").number;
    for (const JsonValue* parent : parents) {
      const double p0 = parent->at("ts").number;
      const double p1 = p0 + parent->at("dur").number;
      if (parent->at("tid").number == enc->at("tid").number && p0 <= e0 &&
          e1 <= p1) {
        ++nested_under[parent->at("name").str];
      }
    }
  }
  EXPECT_EQ(nested_under["nn.generate_batch"], 1);
  EXPECT_EQ(nested_under["nn.beam_batch"], 1);
}

// With a worker pool, a continuous backend encodes each arrival inside a
// serve.cb.prepare span on a pool thread: every nn.encode nests under one
// serve.cb.prepare on a tid other than the scheduler's serve.cb.step tid,
// and each request's tree carries its prepare.
TEST_F(ObsTraceTest, PoolPrepareSpanCarriesTheEncode) {
  nn::TransformerConfig cfg;
  cfg.dim = 16;
  cfg.num_heads = 2;
  cfg.ff_hidden = 32;
  cfg.encoder_layers = 1;
  cfg.decoder_layers = 1;
  cfg.max_len = 128;
  Rng init_rng(71);
  auto transformer = std::make_shared<nn::Transformer>(cfg, &init_rng);
  SerializerOptions sopts;
  sopts.max_tokens = cfg.max_len;
  NeuralModelOptions nopts;
  nopts.max_output_tokens = 6;
  auto model = std::make_shared<NeuralSeq2SeqModel>(
      transformer, Serializer(sopts), nopts);
  const std::vector<ExamplePair> examples = {{"Justin Trudeau", "jtrudeau"},
                                             {"Stephen Harper", "sharper"}};
  const std::vector<std::string> sources = {"Kim Campbell", "Brian Mulroney",
                                            "Pierre Trudeau", "Paul Martin"};

  const std::string path = TempFile("prepare_trace.json");
  ASSERT_TRUE(StartTracing(path).ok());
  serve::ServeOptions opts;
  opts.decomposer.num_trials = 1;
  opts.num_threads = 2;
  serve::BackendQueueOptions queue;
  queue.continuous.enabled = true;
  queue.continuous.max_slots = 2;
  opts.backends = {queue};
  {
    serve::TransformService service(model, opts);
    std::vector<std::future<RowPrediction>> futures;
    for (const auto& source : sources) {
      auto admitted = service.Submit(source, examples);
      ASSERT_TRUE(admitted.ok());
      futures.push_back(std::move(admitted).value());
    }
    for (auto& f : futures) f.get();
  }
  ASSERT_TRUE(StopTracing().ok());

  const JsonValue doc = ParseTraceFile(path);
  std::vector<const JsonValue*> encodes, prepares;
  std::set<double> step_tids;
  for (const auto& e : doc.at("traceEvents").items) {
    if (e.at("ph").str != "X") continue;
    const std::string name = e.at("name").str;
    if (name == "nn.encode") encodes.push_back(&e);
    if (name == "serve.cb.prepare") prepares.push_back(&e);
    if (name == "serve.cb.step") step_tids.insert(e.at("tid").number);
  }
  ASSERT_EQ(step_tids.size(), 1u);
  const double scheduler_tid = *step_tids.begin();
  ASSERT_EQ(prepares.size(), sources.size());
  ASSERT_EQ(encodes.size(), sources.size());
  std::set<double> requests;
  for (const JsonValue* prep : prepares) {
    EXPECT_NE(prep->at("tid").number, scheduler_tid);
    requests.insert(prep->at("args").at("request").number);
    EXPECT_EQ(prep->at("args").at("model").number, 0.0);
    EXPECT_EQ(prep->at("args").at("trial").number, 0.0);
  }
  EXPECT_EQ(requests.size(), sources.size());
  for (const JsonValue* enc : encodes) {
    EXPECT_NE(enc->at("tid").number, scheduler_tid);
    EXPECT_EQ(enc->at("args").at("prompts").number, 1.0);
    const double e0 = enc->at("ts").number;
    const double e1 = e0 + enc->at("dur").number;
    int parents = 0;
    for (const JsonValue* prep : prepares) {
      const double p0 = prep->at("ts").number;
      const double p1 = p0 + prep->at("dur").number;
      if (prep->at("tid").number == enc->at("tid").number && p0 <= e0 &&
          e1 <= p1) {
        ++parents;
      }
    }
    EXPECT_EQ(parents, 1);
  }
}

// A pipeline run while tracing is on records its TransformAll span, and its
// predictions still match the untraced reference.
TEST_F(ObsTraceTest, PipelineTransformAllIsTracedAndUnchanged) {
  const std::vector<ExamplePair> examples = {{"alpha-beta", "beta"},
                                             {"gamma-delta", "delta"}};
  const std::vector<std::string> sources = {"epsilon-zeta", "eta-theta"};
  PipelineOptions base;
  base.decomposer.num_trials = 2;
  DttPipeline untraced(std::make_shared<PatternInductionModel>(), base);
  Rng ref_rng(9);
  const auto ref = untraced.TransformAll(sources, examples, &ref_rng);

  const std::string path = TempFile("pipeline_trace.json");
  ASSERT_TRUE(StartTracing(path).ok());
  DttPipeline traced(std::make_shared<PatternInductionModel>(), base);
  Rng rng(9);
  const auto got = traced.TransformAll(sources, examples, &rng);
  ASSERT_TRUE(StopTracing().ok());

  ASSERT_EQ(got.size(), ref.size());
  for (size_t r = 0; r < got.size(); ++r) {
    EXPECT_EQ(got[r].prediction, ref[r].prediction);
  }
  const JsonValue doc = ParseTraceFile(path);
  bool saw_transform_all = false;
  for (const auto& e : doc.at("traceEvents").items) {
    if (e.at("name").str == "pipeline.transform_all") {
      saw_transform_all = true;
      EXPECT_EQ(e.at("args").at("rows").number, 2.0);
    }
  }
  EXPECT_TRUE(saw_transform_all);
}

}  // namespace
}  // namespace obs
}  // namespace dtt
