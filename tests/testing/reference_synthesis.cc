#include "testing/reference_synthesis.h"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "models/alignment_internal.h"

namespace dtt {
namespace testing {

using induction::AtomProgram;
using induction::InductionConfig;
using induction::TokenCache;
using induction::internal::Cand;

namespace {

struct Partial {
  std::vector<induction::Atom> atoms;
  double score = 0.0;
};

// Joint synthesis over two examples: a DP over position pairs (j1, j2) of
// the two targets, keeping the best kPerState partials per state.
std::vector<AtomProgram> ReferenceJointSynthesize(const ExamplePair& ex1,
                                                  const ExamplePair& ex2,
                                                  const InductionConfig& cfg) {
  std::vector<AtomProgram> out;
  const std::string& t1 = ex1.target;
  const std::string& t2 = ex2.target;
  if (t1.empty() || t2.empty()) return out;
  TokenCache cache1(ex1.source, cfg.separators);
  TokenCache cache2(ex2.source, cfg.separators);
  std::vector<std::vector<Cand>> cands1 =
      induction::internal::PositionCandidates(cache1, t1, cfg);

  constexpr size_t kPerState = 4;
  const size_t n1 = t1.size() + 1;
  const size_t n2 = t2.size() + 1;
  std::vector<std::vector<std::vector<Partial>>> dp(
      n1, std::vector<std::vector<Partial>>(n2));
  dp[0][0].push_back({});
  auto keep_top = [](std::vector<Partial>* v, size_t cap) {
    if (v->size() <= cap) return;
    std::stable_sort(v->begin(), v->end(), [](const Partial& a,
                                              const Partial& b) {
      return a.score > b.score;
    });
    v->resize(cap);
  };

  for (size_t j1 = 0; j1 < t1.size(); ++j1) {
    for (size_t j2 = 0; j2 <= t2.size(); ++j2) {
      auto& here = dp[j1][j2];
      if (here.empty()) continue;
      keep_top(&here, kPerState);
      for (const auto& cand : cands1[j1]) {
        auto piece2 = cand.atom.Apply(cache2);
        if (!piece2) continue;
        if (t2.compare(j2, piece2->size(), *piece2) != 0) continue;
        size_t next2 = j2 + piece2->size();
        size_t next1 = j1 + cand.len;
        for (const auto& partial : here) {
          if (static_cast<int>(partial.atoms.size()) >= cfg.max_atoms) continue;
          Partial ext = partial;
          ext.atoms.push_back(cand.atom);
          ext.score += cand.score;
          dp[next1][next2].push_back(std::move(ext));
        }
      }
      here.clear();
      here.shrink_to_fit();
    }
  }

  auto& done = dp[t1.size()][t2.size()];
  std::stable_sort(done.begin(), done.end(),
                   [](const Partial& a, const Partial& b) {
                     return a.score > b.score;
                   });
  std::unordered_set<std::string> seen;
  for (auto& partial : done) {
    AtomProgram program;
    program.atoms = std::move(partial.atoms);
    program.score = partial.score;
    induction::internal::CanonicalizeLiterals(&program);
    if (!seen.insert(program.Key()).second) continue;
    out.push_back(std::move(program));
    if (static_cast<int>(out.size()) >= cfg.max_programs) break;
  }
  return out;
}

}  // namespace

std::vector<AtomProgram> ReferenceSynthesizePrograms(
    const ExamplePair& ex, const InductionConfig& cfg) {
  std::vector<AtomProgram> out;
  const std::string& s = ex.source;
  const std::string& t = ex.target;
  if (t.empty()) return out;
  TokenCache cache(s, cfg.separators);
  std::vector<std::vector<Cand>> cands =
      induction::internal::PositionCandidates(cache, t, cfg);

  // Beam over target positions.
  std::vector<std::vector<Partial>> beams(t.size() + 1);
  beams[0].push_back({});
  for (size_t j = 0; j < t.size(); ++j) {
    if (beams[j].empty()) continue;
    for (const auto& partial : beams[j]) {
      if (static_cast<int>(partial.atoms.size()) >= cfg.max_atoms) continue;
      for (const auto& cand : cands[j]) {
        size_t next = j + cand.len;
        Partial ext = partial;
        ext.atoms.push_back(cand.atom);
        ext.score += cand.score;
        beams[next].push_back(std::move(ext));
      }
    }
    beams[j].clear();
    for (size_t n = j + 1; n <= t.size(); ++n) {
      auto& beam = beams[n];
      if (static_cast<int>(beam.size()) > cfg.beam_width * 2) {
        std::stable_sort(beam.begin(), beam.end(),
                         [](const Partial& a, const Partial& b) {
                           return a.score > b.score;
                         });
        beam.resize(static_cast<size_t>(cfg.beam_width));
      }
    }
  }

  auto& done = beams[t.size()];
  std::stable_sort(done.begin(), done.end(),
                   [](const Partial& a, const Partial& b) {
                     return a.score > b.score;
                   });
  std::unordered_set<std::string> seen;
  for (auto& partial : done) {
    AtomProgram program;
    program.atoms = std::move(partial.atoms);
    program.score = partial.score;
    induction::internal::CanonicalizeLiterals(&program);
    std::string key = program.Key();
    if (!seen.insert(key).second) continue;
    out.push_back(std::move(program));
    if (static_cast<int>(out.size()) >= cfg.max_programs) break;
  }
  return out;
}

std::vector<AtomProgram> ReferenceSynthesizeCommonPrograms(
    const std::vector<ExamplePair>& examples, const InductionConfig& cfg) {
  std::vector<AtomProgram> result;
  if (examples.empty()) return result;
  if (examples.size() == 1) {
    return ReferenceSynthesizePrograms(examples[0], cfg);
  }
  result = ReferenceJointSynthesize(examples[0], examples[1], cfg);
  if (examples.size() == 2) return result;

  std::vector<AtomProgram> filtered;
  for (auto& program : result) {
    bool ok = true;
    for (size_t i = 2; i < examples.size() && ok; ++i) {
      auto out = program.Apply(examples[i].source, cfg.separators);
      ok = out && *out == examples[i].target;
    }
    if (ok) filtered.push_back(std::move(program));
  }
  return filtered;
}

}  // namespace testing
}  // namespace dtt
