#include "models/alignment.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <unordered_set>

#include "models/alignment_internal.h"
#include "util/string_util.h"

namespace dtt {
namespace induction {

std::string ApplyCase(CaseOp op, std::string_view s) {
  switch (op) {
    case CaseOp::kNone:
      return std::string(s);
    case CaseOp::kLower:
      return ToLower(s);
    case CaseOp::kUpper:
      return ToUpper(s);
  }
  return std::string(s);
}

std::optional<size_t> PosRef::Resolve(size_t n) const {
  if (index < 0) return std::nullopt;
  size_t i = static_cast<size_t>(index);
  if (i > n) return std::nullopt;
  return from_end ? n - i : i;
}

size_t PosRef::ResolveClamped(size_t n) const {
  if (index < 0) return 0;
  size_t i = static_cast<size_t>(index);
  if (from_end) return i > n ? 0 : n - i;
  return std::min(i, n);
}

namespace {

const char* CaseName(CaseOp op) {
  switch (op) {
    case CaseOp::kNone:
      return "n";
    case CaseOp::kLower:
      return "l";
    case CaseOp::kUpper:
      return "u";
  }
  return "?";
}

std::string PosKey(const PosRef& p) {
  return StrFormat("%d%c", p.index, p.from_end ? 'e' : 's');
}

}  // namespace

TokenCache::TokenCache(std::string_view input, std::string_view separators)
    : input_(input), separators_(separators) {
  for (char c : separators_) {
    if (input_.find(c) != std::string::npos) present_.push_back(c);
  }
}

const std::vector<std::string>& TokenCache::Tokens(char family) const {
  for (const auto& [f, tokens] : families_) {
    if (f == family) return tokens;
  }
  std::string_view seps =
      family == 0 ? std::string_view(separators_) : std::string_view(&family, 1);
  families_.emplace_back(family, SplitAny(input_, seps));
  return families_.back().second;
}

std::optional<std::string> Atom::Apply(const TokenCache& cache) const {
  // Clamping semantics throughout, mirroring the transformation DSL: an
  // out-of-range substr yields the empty string, an out-of-range split index
  // yields the empty string. Programs therefore always "apply"; degenerate
  // ones produce empty pieces.
  std::string_view input = cache.input();
  switch (kind) {
    case Kind::kLiteral:
      return literal;
    case Kind::kCopyRange: {
      size_t b = begin.ResolveClamped(input.size());
      size_t e = end.ResolveClamped(input.size());
      if (e <= b) return std::string();
      return ApplyCase(case_op, input.substr(b, e - b));
    }
    case Kind::kCopyToken: {
      const auto& tokens = cache.Tokens(family);
      auto k = token.Resolve(tokens.size());
      if (!k || *k >= tokens.size()) return std::string();
      return ApplyCase(case_op, tokens[*k]);
    }
    case Kind::kCopyTokenSlice: {
      const auto& tokens = cache.Tokens(family);
      auto k = token.Resolve(tokens.size());
      if (!k || *k >= tokens.size()) return std::string();
      const std::string& tok = tokens[*k];
      size_t b = begin.ResolveClamped(tok.size());
      size_t e = end.ResolveClamped(tok.size());
      if (e <= b) return std::string();
      return ApplyCase(case_op, std::string_view(tok).substr(b, e - b));
    }
  }
  return std::nullopt;
}

std::string Atom::Key() const {
  std::string fam = family == 0 ? std::string("*") : std::string(1, family);
  switch (kind) {
    case Kind::kLiteral:
      return "L:" + literal;
    case Kind::kCopyRange:
      return "R:" + PosKey(begin) + "," + PosKey(end) + "," + CaseName(case_op);
    case Kind::kCopyToken:
      return "T:" + fam + "," + PosKey(token) + "," + CaseName(case_op);
    case Kind::kCopyTokenSlice:
      return "S:" + fam + "," + PosKey(token) + "," + PosKey(begin) + "," +
             PosKey(end) + "," + CaseName(case_op);
  }
  return "?";
}

std::optional<std::string> AtomProgram::Apply(
    std::string_view input, std::string_view separators) const {
  TokenCache cache(input, separators);
  return Apply(cache);
}

std::optional<std::string> AtomProgram::Apply(const TokenCache& cache) const {
  std::string out;
  for (const auto& atom : atoms) {
    auto piece = atom.Apply(cache);
    if (!piece) return std::nullopt;
    out += *piece;
  }
  return out;
}

std::string AtomProgram::Key() const {
  std::string key;
  for (const auto& atom : atoms) {
    key += atom.Key();
    key += ";";
  }
  return key;
}

std::vector<std::string> TokenizeCell(std::string_view s,
                                      std::string_view separators) {
  return SplitAny(s, separators);
}

namespace {

using internal::Cand;

// Max l such that ApplyCase(op, s.substr(p, l)) matches t.substr(j, l).
size_t MatchLen(std::string_view s, size_t p, std::string_view t, size_t j,
                CaseOp op) {
  size_t l = 0;
  while (p + l < s.size() && j + l < t.size()) {
    char sc = s[p + l];
    if (op == CaseOp::kLower) {
      sc = static_cast<char>(std::tolower(static_cast<unsigned char>(sc)));
    } else if (op == CaseOp::kUpper) {
      sc = static_cast<char>(std::toupper(static_cast<unsigned char>(sc)));
    }
    if (sc != t[j + l]) break;
    ++l;
  }
  return l;
}

// All case ops (cheapest first).
constexpr CaseOp kCaseOps[] = {CaseOp::kNone, CaseOp::kLower, CaseOp::kUpper};

// Candidates from one separator family's token decomposition.
void AddFamilyTokenCandidates(char family,
                              const std::vector<std::string>& tokens,
                              std::string_view t, size_t j,
                              const InductionConfig& cfg,
                              std::vector<Cand>* cands) {
  const size_t n = tokens.size();
  const double fam_penalty = family == 0 ? 0.0 : 0.05;  // prefer generic split
  for (size_t k = 0; k < n; ++k) {
    const std::string& tok = tokens[k];
    for (CaseOp op : kCaseOps) {
      double penalty = fam_penalty + ((op == CaseOp::kNone) ? 0.0 : 0.15);
      // Whole token.
      if (cfg.allow_tokens && tok.size() > 0 && j + tok.size() <= t.size()) {
        std::string cased = ApplyCase(op, tok);
        if (t.substr(j, tok.size()) == cased) {
          for (bool from_end : {false, true}) {
            Atom a;
            a.kind = Atom::Kind::kCopyToken;
            a.family = family;
            a.token = from_end ? PosRef{static_cast<int>(n - k), true}
                               : PosRef{static_cast<int>(k), false};
            a.case_op = op;
            cands->push_back(
                {a, tok.size(),
                 2.0 * static_cast<double>(tok.size()) - 1.0 - penalty -
                     (from_end ? 0.01 : 0.0)});
          }
        }
      }
      // Arbitrary [b, b+l) slices within the token (covers initials,
      // truncation, and substring-stacked-on-split transformations).
      if (cfg.allow_token_slice && tok.size() >= 2) {
        size_t max_begin = std::min<size_t>(tok.size() - 1, 12);
        for (size_t b = 0; b <= max_begin; ++b) {
          // Longest match of the cased token tail against the target tail.
          size_t max_l = MatchLen(tok, b, t, j, op);
          max_l = std::min(max_l, tok.size() - b);
          if (b == 0 && max_l == tok.size()) --max_l;  // whole token covered above
          size_t min_l =
              b == 0 ? 1
                     : static_cast<size_t>(
                           std::max(1, cfg.min_nonprefix_slice_len));
          for (size_t l = max_l; l >= min_l; --l) {
            if (j + l > t.size()) continue;
            // Mid-token slices shorter than the max are rarely the intended
            // program; keep only the two longest per (b) to bound growth.
            if (l + 2 <= max_l && l > 1) break;
            double slice_pen = penalty + (b == 0 ? 0.0 : 0.1);
            for (bool from_end : {false, true}) {
              Atom a;
              a.kind = Atom::Kind::kCopyTokenSlice;
              a.family = family;
              a.token = from_end ? PosRef{static_cast<int>(n - k), true}
                                 : PosRef{static_cast<int>(k), false};
              if (from_end) {
                a.begin = {static_cast<int>(tok.size() - b), true};
                a.end = {static_cast<int>(tok.size() - (b + l)), true};
              } else {
                a.begin = {static_cast<int>(b), false};
                a.end = {static_cast<int>(b + l), false};
              }
              a.case_op = op;
              cands->push_back({a, l,
                                1.8 * static_cast<double>(l) - 1.0 - slice_pen -
                                    (from_end ? 0.01 : 0.0)});
              // End-anchored variant "token[b:]" (substr(b, inf) stacked on
              // split): begin from the start, end pinned to the token end.
              if (b + l == tok.size()) {
                Atom tail = a;
                tail.begin = {static_cast<int>(b), false};
                tail.end = {0, true};
                cands->push_back({tail, l,
                                  1.8 * static_cast<double>(l) - 1.0 -
                                      slice_pen - 0.02 -
                                      (from_end ? 0.01 : 0.0)});
              }
            }
          }
        }
      }
    }
  }
}

void AddTokenCandidates(const TokenCache& cache, std::string_view t, size_t j,
                        const InductionConfig& cfg, std::vector<Cand>* cands) {
  AddFamilyTokenCandidates(0, cache.Tokens(0), t, j, cfg, cands);
  for (char sep : cache.present_separators()) {
    const auto& tokens = cache.Tokens(sep);
    // The single-separator family only adds signal when it differs from the
    // all-separators decomposition (i.e. tokens still contain other seps).
    if (tokens.size() <= 1 && cache.Tokens(0).size() <= 1) continue;
    AddFamilyTokenCandidates(sep, tokens, t, j, cfg, cands);
  }
}

void AddCharRangeCandidates(std::string_view s, std::string_view t, size_t j,
                            const InductionConfig& cfg,
                            std::vector<Cand>* cands) {
  if (!cfg.allow_char_range) return;
  const size_t min_range =
      static_cast<size_t>(std::max(2, cfg.min_char_range_len));
  for (CaseOp op : kCaseOps) {
    for (size_t p = 0; p < s.size(); ++p) {
      size_t max_l = MatchLen(s, p, t, j, op);
      if (max_l < min_range) continue;
      // The maximal extension plus shorter prefixes (longer first); shorter
      // prefixes let the cross-example intersection settle on the span length
      // that is actually consistent.
      for (size_t l = max_l; l >= min_range; --l) {
        double penalty = (op == CaseOp::kNone) ? 0.0 : 0.15;
        // All four coordinate-frame combinations: mixed frames express
        // variable-length spans such as "position p to the end of the
        // string" (substr(p, inf)) or whole-string case copies.
        for (int frame = 0; frame < 4; ++frame) {
          bool begin_from_end = frame & 1;
          bool end_from_end = frame & 2;
          Atom a;
          a.kind = Atom::Kind::kCopyRange;
          a.begin = begin_from_end
                        ? PosRef{static_cast<int>(s.size() - p), true}
                        : PosRef{static_cast<int>(p), false};
          a.end = end_from_end
                      ? PosRef{static_cast<int>(s.size() - (p + l)), true}
                      : PosRef{static_cast<int>(p + l), false};
          a.case_op = op;
          cands->push_back({a, l,
                            2.0 * static_cast<double>(l) - 1.2 - penalty -
                                0.01 * frame});
        }
        if (l > 8 && l != max_l) l -= 1;  // thin out long mid-spans
      }
    }
  }
}

void AddLiteralCandidates(std::string_view t, size_t j,
                          const InductionConfig& cfg,
                          std::vector<Cand>* cands) {
  size_t max_l =
      std::min<size_t>(static_cast<size_t>(cfg.max_literal_len), t.size() - j);
  for (size_t l = 1; l <= max_l; ++l) {
    Atom a;
    a.kind = Atom::Kind::kLiteral;
    a.literal = std::string(t.substr(j, l));
    cands->push_back({a, l, 0.25 * static_cast<double>(l) - 1.0});
  }
}

}  // namespace

namespace internal {

std::vector<std::vector<Cand>> PositionCandidates(const TokenCache& cache,
                                                  std::string_view target,
                                                  const InductionConfig& cfg) {
  std::vector<std::vector<Cand>> cands(target.size());
  for (size_t j = 0; j < target.size(); ++j) {
    auto& c = cands[j];
    AddTokenCandidates(cache, target, j, cfg, &c);
    AddCharRangeCandidates(cache.input(), target, j, cfg, &c);
    AddLiteralCandidates(target, j, cfg, &c);
    // Keep the strongest candidates per position.
    std::stable_sort(c.begin(), c.end(), [](const Cand& a, const Cand& b) {
      return a.score > b.score;
    });
    if (c.size() > 72) c.resize(72);
  }
  return cands;
}

void CanonicalizeLiterals(AtomProgram* program) {
  std::vector<Atom> merged;
  for (auto& atom : program->atoms) {
    if (atom.kind == Atom::Kind::kLiteral && !merged.empty() &&
        merged.back().kind == Atom::Kind::kLiteral) {
      merged.back().literal += atom.literal;
    } else {
      merged.push_back(std::move(atom));
    }
  }
  program->atoms = std::move(merged);
}

}  // namespace internal

namespace {

using Candidates = std::vector<std::vector<Cand>>;

// A partial program in a per-call search arena: its last atom is
// cands[pos][cand], the atoms before it are the parent's (-1 marks the empty
// program at the root). Extending a partial appends one node, and beams and
// DP states hold node indices, so atoms are copied only when a finished
// program is materialized.
struct Node {
  int32_t parent;
  uint32_t pos;
  uint32_t cand;
  int32_t depth;  // atoms in the program
  double score;
};
static_assert(sizeof(Node) == 24, "Node is meant to stay small");

// Appends the extension of `parent` by cands[pos][cand]; returns its index.
uint32_t Extend(std::vector<Node>* nodes, uint32_t parent, size_t pos,
                size_t cand, const Candidates& cands) {
  const Node& p = (*nodes)[parent];
  Node ext{static_cast<int32_t>(parent), static_cast<uint32_t>(pos),
           static_cast<uint32_t>(cand), p.depth + 1,
           p.score + cands[pos][cand].score};
  nodes->push_back(ext);
  return static_cast<uint32_t>(nodes->size() - 1);
}

// Best score first, ties to the older node. Every push into a beam or DP
// state is a fresh node, so among equal scores node order is insertion order
// and this total order is exactly what a stable sort by score (the copy-based
// search's pruning) produces.
struct BetterNode {
  const std::vector<Node>& nodes;
  bool operator()(uint32_t a, uint32_t b) const {
    if (nodes[a].score != nodes[b].score) {
      return nodes[a].score > nodes[b].score;
    }
    return a < b;
  }
};

// Keeps the best `cap` of `ids` when there are more, in order.
void KeepBest(const std::vector<Node>& nodes, size_t cap,
              std::vector<uint32_t>* ids) {
  if (ids->size() <= cap) return;
  std::partial_sort(ids->begin(), ids->begin() + static_cast<ptrdiff_t>(cap),
                    ids->end(), BetterNode{nodes});
  ids->resize(cap);
}

// What a search leaves behind: its candidate atoms, its arena and the ids of
// its finished programs (in no particular order).
struct Search {
  Candidates cands;
  std::vector<Node> nodes;
  std::vector<uint32_t> done;
};

// Beam over the target positions of one example.
Search BeamSearch(const ExamplePair& ex, const InductionConfig& cfg) {
  Search s;
  const std::string& t = ex.target;
  if (t.empty()) return s;
  TokenCache cache(ex.source, cfg.separators);
  s.cands = internal::PositionCandidates(cache, t, cfg);
  const Candidates& cands = s.cands;

  // A pruned beam holds at most 2 * beam_width partials, which bounds the
  // arena; reserving it up front spares the copies of a growing vector.
  size_t max_nodes = 1;
  for (const auto& c : cands) {
    max_nodes += 2 * static_cast<size_t>(cfg.beam_width) * c.size();
  }
  std::vector<Node>& nodes = s.nodes;
  nodes.reserve(max_nodes);
  nodes.push_back({-1, 0, 0, 0, 0.0});
  std::vector<std::vector<uint32_t>> beams(t.size() + 1);
  beams[0].push_back(0);
  for (size_t j = 0; j < t.size(); ++j) {
    if (beams[j].empty()) continue;
    for (uint32_t id : beams[j]) {
      if (nodes[id].depth >= cfg.max_atoms) continue;
      for (size_t c = 0; c < cands[j].size(); ++c) {
        beams[j + cands[j][c].len].push_back(Extend(&nodes, id, j, c, cands));
      }
    }
    beams[j].clear();
    for (size_t n = j + 1; n <= t.size(); ++n) {
      if (static_cast<int>(beams[n].size()) > cfg.beam_width * 2) {
        KeepBest(nodes, static_cast<size_t>(cfg.beam_width), &beams[n]);
      }
    }
  }
  s.done = std::move(beams[t.size()]);
  return s;
}

// Joint synthesis over two examples (the FlashFill-style version-space
// intersection): a DP over position pairs (j1, j2) of the two targets where
// every candidate atom must produce matching pieces for BOTH examples under
// the SAME positional descriptor. Far more complete than intersecting two
// independently-ranked program lists, and cheaper too.
Search JointSearch(const ExamplePair& ex1, const ExamplePair& ex2,
                   const InductionConfig& cfg) {
  Search s;
  const std::string& t1 = ex1.target;
  const std::string& t2 = ex2.target;
  if (t1.empty() || t2.empty()) return s;
  TokenCache cache1(ex1.source, cfg.separators);
  TokenCache cache2(ex2.source, cfg.separators);

  // Candidate atoms anchored on example 1's positions (as in the
  // single-example synthesis); each is validated against example 2 lazily.
  s.cands = internal::PositionCandidates(cache1, t1, cfg);
  const Candidates& cands1 = s.cands;

  // dp[j1][j2]: best partial programs reaching (j1, j2).
  constexpr size_t kPerState = 4;
  const size_t n1 = t1.size() + 1;
  const size_t n2 = t2.size() + 1;
  std::vector<Node>& nodes = s.nodes;
  nodes.push_back({-1, 0, 0, 0, 0.0});
  std::vector<std::vector<std::vector<uint32_t>>> dp(
      n1, std::vector<std::vector<uint32_t>>(n2));
  dp[0][0].push_back(0);
  // Example 2's piece per candidate of the current j1; it does not depend on
  // j2, so it is computed once, at the first live state of the column.
  std::vector<std::optional<std::string>> pieces2;

  // Process states in increasing j1 (atoms always consume >= 1 char of t1).
  for (size_t j1 = 0; j1 < t1.size(); ++j1) {
    pieces2.clear();
    for (size_t j2 = 0; j2 <= t2.size(); ++j2) {
      auto& here = dp[j1][j2];
      if (here.empty()) continue;
      KeepBest(nodes, kPerState, &here);
      if (pieces2.empty()) {
        for (const auto& cand : cands1[j1]) {
          pieces2.push_back(cand.atom.Apply(cache2));
        }
      }
      for (size_t c = 0; c < cands1[j1].size(); ++c) {
        // The same descriptor must produce a matching piece for example 2.
        const auto& piece2 = pieces2[c];
        if (!piece2) continue;
        if (t2.compare(j2, piece2->size(), *piece2) != 0) continue;
        auto& next = dp[j1 + cands1[j1][c].len][j2 + piece2->size()];
        for (uint32_t id : here) {
          if (nodes[id].depth >= cfg.max_atoms) continue;
          next.push_back(Extend(&nodes, id, j1, c, cands1));
        }
      }
      here.clear();
      here.shrink_to_fit();
    }
  }
  s.done = std::move(dp[t1.size()][t2.size()]);
  return s;
}

// Walks the finished programs of `search` in program-list order: best first,
// deduplicated by key after literal canonicalization, at most
// cfg.max_programs distinct ones. `stop(id)` sees each finished node before
// its key is computed and ends the walk by returning true. Programs with one
// key behave alike, so a node `stop` accepts is never a duplicate: its
// earlier twin would have ended the walk already. Each new distinct program
// that did not stop the walk then goes to `keep(id, program)`.
template <typename Stop, typename Keep>
void VisitPrograms(Search* search, const InductionConfig& cfg, Stop&& stop,
                   Keep&& keep) {
  const std::vector<Node>& nodes = search->nodes;
  // A heap with the best node on top: the walk usually ends long before the
  // last of the finished nodes, so they are never fully sorted.
  std::vector<uint32_t>& heap = search->done;
  const auto worse = [&nodes](uint32_t a, uint32_t b) {
    return BetterNode{nodes}(b, a);
  };
  std::make_heap(heap.begin(), heap.end(), worse);
  std::unordered_set<std::string> seen;
  int distinct = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), worse);
    const uint32_t id = heap.back();
    heap.pop_back();
    if (stop(id)) return;
    AtomProgram program;
    program.score = nodes[id].score;
    program.atoms.resize(static_cast<size_t>(nodes[id].depth));
    for (const Node* n = &nodes[id]; n->parent >= 0; n = &nodes[n->parent]) {
      program.atoms[static_cast<size_t>(n->depth - 1)] =
          search->cands[n->pos][n->cand].atom;
    }
    internal::CanonicalizeLiterals(&program);
    if (!seen.insert(program.Key()).second) continue;
    keep(id, std::move(program));
    if (++distinct >= cfg.max_programs) return;
  }
}

// Appends the output of finished program `id` on `cache` to `out`, straight
// from the arena; false when an atom does not apply.
bool AppendOutput(const Search& search, uint32_t id, const TokenCache& cache,
                  std::string* out) {
  const Node& n = search.nodes[id];
  if (n.parent < 0) return true;
  if (!AppendOutput(search, static_cast<uint32_t>(n.parent), cache, out)) {
    return false;
  }
  auto piece = search.cands[n.pos][n.cand].atom.Apply(cache);
  if (!piece) return false;
  *out += *piece;
  return true;
}

// The examples after the first two, which a joint search does not cover:
// its programs must reproduce their targets as well.
class RestExamples {
 public:
  RestExamples(const std::vector<ExamplePair>& examples,
               const InductionConfig& cfg) {
    for (size_t i = 2; i < examples.size(); ++i) {
      sources_.emplace_back(examples[i].source, cfg.separators);
      targets_.push_back(&examples[i].target);
    }
  }

  bool Match(const Search& search, uint32_t id) const {
    for (size_t i = 0; i < sources_.size(); ++i) {
      std::string out;
      if (!AppendOutput(search, id, sources_[i], &out) || out != *targets_[i]) {
        return false;
      }
    }
    return true;
  }

 private:
  std::vector<TokenCache> sources_;
  std::vector<const std::string*> targets_;
};

// The first program of the walk that matches `rest` and has a non-empty
// output on `source`.
std::optional<ProgramOutput> FirstOutput(Search* search,
                                         const RestExamples& rest,
                                         const TokenCache& source,
                                         const InductionConfig& cfg) {
  std::optional<ProgramOutput> first;
  VisitPrograms(
      search, cfg,
      [&](uint32_t id) {
        if (!rest.Match(*search, id)) return false;
        std::string out;
        if (!AppendOutput(*search, id, source, &out) || out.empty()) {
          return false;
        }
        first = ProgramOutput{std::move(out), search->nodes[id].score};
        return true;
      },
      [](uint32_t, AtomProgram&&) {});
  return first;
}

}  // namespace

std::vector<AtomProgram> SynthesizePrograms(const ExamplePair& ex,
                                            const InductionConfig& cfg) {
  Search search = BeamSearch(ex, cfg);
  std::vector<AtomProgram> out;
  VisitPrograms(
      &search, cfg, [](uint32_t) { return false; },
      [&](uint32_t, AtomProgram&& program) {
        out.push_back(std::move(program));
      });
  return out;
}

std::vector<AtomProgram> SynthesizeCommonPrograms(
    const std::vector<ExamplePair>& examples, const InductionConfig& cfg) {
  if (examples.empty()) return {};
  if (examples.size() == 1) return SynthesizePrograms(examples[0], cfg);
  Search search = JointSearch(examples[0], examples[1], cfg);
  const RestExamples rest(examples, cfg);
  std::vector<AtomProgram> out;
  VisitPrograms(
      &search, cfg, [](uint32_t) { return false; },
      [&](uint32_t id, AtomProgram&& program) {
        if (rest.Match(search, id)) out.push_back(std::move(program));
      });
  return out;
}

std::optional<ProgramOutput> FirstProgramOutput(const ExamplePair& ex,
                                                const TokenCache& source,
                                                const InductionConfig& cfg) {
  Search search = BeamSearch(ex, cfg);
  return FirstOutput(&search, RestExamples({}, cfg), source, cfg);
}

std::optional<ProgramOutput> FirstCommonProgramOutput(
    const std::vector<ExamplePair>& examples, const TokenCache& source,
    const InductionConfig& cfg) {
  if (examples.empty()) return std::nullopt;
  if (examples.size() == 1) return FirstProgramOutput(examples[0], source, cfg);
  Search search = JointSearch(examples[0], examples[1], cfg);
  return FirstOutput(&search, RestExamples(examples, cfg), source, cfg);
}

std::string GlobalPattern::Apply(std::string_view input) const {
  switch (kind) {
    case Kind::kIdentity:
      return std::string(input);
    case Kind::kLower:
      return ToLower(input);
    case Kind::kUpper:
      return ToUpper(input);
    case Kind::kReverse:
      return Reverse(ApplyCase(reverse_case, input));
    case Kind::kCharReplace: {
      std::string out(input);
      for (char& c : out) {
        for (const auto& [from, to] : char_map) {
          if (c == from) {
            c = to;
            break;
          }
        }
      }
      return out;
    }
  }
  return std::string(input);
}

std::optional<GlobalPattern> DetectGlobalPattern(
    const std::vector<ExamplePair>& examples, bool detect_replace,
    bool detect_reverse) {
  if (examples.empty()) return std::nullopt;
  auto all = [&](auto&& pred) {
    for (const auto& ex : examples) {
      if (!pred(ex)) return false;
    }
    return true;
  };

  if (all([](const ExamplePair& e) { return e.target == e.source; })) {
    return GlobalPattern{GlobalPattern::Kind::kIdentity, CaseOp::kNone, {}};
  }
  if (all([](const ExamplePair& e) { return e.target == ToLower(e.source); })) {
    return GlobalPattern{GlobalPattern::Kind::kLower, CaseOp::kNone, {}};
  }
  if (all([](const ExamplePair& e) { return e.target == ToUpper(e.source); })) {
    return GlobalPattern{GlobalPattern::Kind::kUpper, CaseOp::kNone, {}};
  }

  if (detect_replace &&
      all([](const ExamplePair& e) {
        return e.source.size() == e.target.size();
      })) {
    // Learn a functional per-character map across all examples.
    std::map<char, char> mapping;
    bool consistent = true;
    bool differs = false;
    for (const auto& ex : examples) {
      for (size_t i = 0; i < ex.source.size() && consistent; ++i) {
        char from = ex.source[i];
        char to = ex.target[i];
        auto it = mapping.find(from);
        if (it == mapping.end()) {
          mapping.emplace(from, to);
        } else if (it->second != to) {
          consistent = false;
        }
        if (from != to) differs = true;
      }
      if (!consistent) break;
    }
    if (consistent && differs) {
      GlobalPattern p;
      p.kind = GlobalPattern::Kind::kCharReplace;
      for (const auto& [from, to] : mapping) {
        if (from != to) p.char_map.emplace_back(from, to);
      }
      return p;
    }
  }

  if (detect_reverse) {
    for (CaseOp op : {CaseOp::kNone, CaseOp::kLower, CaseOp::kUpper}) {
      if (all([op](const ExamplePair& e) {
            return e.target == Reverse(ApplyCase(op, e.source));
          })) {
        GlobalPattern p;
        p.kind = GlobalPattern::Kind::kReverse;
        p.reverse_case = op;
        return p;
      }
    }
  }
  return std::nullopt;
}

}  // namespace induction
}  // namespace dtt
