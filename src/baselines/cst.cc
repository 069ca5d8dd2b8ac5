#include "baselines/cst.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace dtt {

CstJoiner::CstJoiner(CstOptions options) : options_(std::move(options)) {
  options_.induction.max_programs = options_.candidates_per_example;
  options_.induction.max_atoms =
      std::min(options_.induction.max_atoms, options_.max_units);
  // CST anchors on long common substrings ("textual evidence"); it cannot
  // stitch programs out of short fragments the way a byte-level LM can.
  options_.induction.min_char_range_len =
      std::max(options_.induction.min_char_range_len, 4);
  options_.induction.min_nonprefix_slice_len =
      std::max(options_.induction.min_nonprefix_slice_len, 3);
}

std::vector<induction::AtomProgram> CstJoiner::Learn(
    const std::vector<ExamplePair>& examples) const {
  // 1. Mine candidate programs per example independently (the CST property
  // that makes it more noise-robust than Auto-join: one bad example only
  // pollutes its own candidates).
  std::unordered_map<std::string, induction::AtomProgram> pool;
  for (const auto& example : examples) {
    auto programs = induction::SynthesizePrograms(example, options_.induction);
    for (auto& p : programs) {
      pool.emplace(p.Key(), std::move(p));
    }
  }

  // 2. Coverage of every candidate over all examples.
  struct Scored {
    const induction::AtomProgram* program;
    std::vector<bool> covers;
    size_t coverage = 0;
  };
  std::vector<Scored> scored;
  scored.reserve(pool.size());
  for (const auto& [key, program] : pool) {
    Scored s{&program, std::vector<bool>(examples.size(), false), 0};
    for (size_t i = 0; i < examples.size(); ++i) {
      auto out =
          program.Apply(examples[i].source, options_.induction.separators);
      if (out && *out == examples[i].target) {
        s.covers[i] = true;
        ++s.coverage;
      }
    }
    if (s.coverage > 0) scored.push_back(std::move(s));
  }

  // 3. Greedy set cover, coverage first then synthesis score.
  std::vector<bool> covered(examples.size(), false);
  std::vector<induction::AtomProgram> result;
  while (static_cast<int>(result.size()) < options_.max_transformations) {
    const Scored* best = nullptr;
    size_t best_gain = 0;
    for (const auto& s : scored) {
      size_t gain = 0;
      for (size_t i = 0; i < covered.size(); ++i) {
        if (!covered[i] && s.covers[i]) ++gain;
      }
      if (gain > best_gain ||
          (gain == best_gain && gain > 0 && best != nullptr &&
           s.program->score > best->program->score)) {
        best = &s;
        best_gain = gain;
      }
    }
    if (best == nullptr || best_gain == 0) break;
    result.push_back(*best->program);
    for (size_t i = 0; i < covered.size(); ++i) {
      if (best->covers[i]) covered[i] = true;
    }
  }
  return result;
}

JoinResult CstJoiner::Join(const std::vector<std::string>& sources,
                           const std::vector<ExamplePair>& examples,
                           const std::vector<std::string>& target_values) const {
  auto transformations = Learn(examples);
  std::unordered_map<std::string, int> target_index;
  for (size_t j = 0; j < target_values.size(); ++j) {
    target_index.emplace(target_values[j], static_cast<int>(j));
  }
  JoinResult result;
  result.matches.resize(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    if (options_.probe_all_transformations) {
      // Oracle-ish variant: any transformation whose output hits the target
      // column produces the match.
      for (const auto& t : transformations) {
        auto out = t.Apply(sources[i], options_.induction.separators);
        if (!out || out->empty()) continue;
        auto hit = target_index.find(*out);
        if (hit != target_index.end()) {
          result.matches[i].target_index = hit->second;
          result.matches[i].edit_distance = 0;
          break;
        }
      }
      continue;
    }
    // Faithful CST: apply the highest-ranked transformation that produces an
    // output for this row (no peeking at the target — "the problem of
    // selecting a transformation ... is left unanswered", §1/§3.1), then
    // look that single value up.
    for (const auto& t : transformations) {
      auto out = t.Apply(sources[i], options_.induction.separators);
      if (!out || out->empty()) continue;
      auto hit = target_index.find(*out);
      if (hit != target_index.end()) {
        result.matches[i].target_index = hit->second;
        result.matches[i].edit_distance = 0;
      }
      break;  // first applicable transformation decides, hit or miss
    }
  }
  return result;
}

}  // namespace dtt
