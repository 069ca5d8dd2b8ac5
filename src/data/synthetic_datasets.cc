#include "data/synthetic_datasets.h"

#include "util/string_util.h"

namespace dtt {

namespace {

SourceTextOptions SourceOpts(const SyntheticOptions& opts) {
  SourceTextOptions src;
  src.min_len = opts.min_len;
  src.max_len = opts.max_len;
  return src;
}

TablePair MakeTableFromProgram(const std::string& name,
                               const TransformProgram& program,
                               const SyntheticOptions& opts, Rng* rng) {
  TablePair table;
  table.name = name;
  SourceTextOptions src = SourceOpts(opts);
  int guard = opts.rows_per_table * 10;
  while (static_cast<int>(table.num_rows()) < opts.rows_per_table &&
         guard-- > 0) {
    std::string s = RandomSourceText(src, rng);
    std::string t = program.Apply(s);
    if (t.empty()) continue;  // unmappable rows are not useful ground truth
    table.source.push_back(std::move(s));
    table.target.push_back(std::move(t));
  }
  return table;
}

}  // namespace

Dataset MakeSyn(const SyntheticOptions& opts, Rng* rng) {
  Dataset ds;
  ds.name = "Syn";
  ProgramOptions popts;
  for (int i = 0; i < opts.num_tables; ++i) {
    // 3..6 units per transformation (§5.2).
    int units = static_cast<int>(rng->NextInt(3, 6));
    TransformProgram program = SampleProgramWithSteps(popts, units, rng);
    ds.tables.push_back(MakeTableFromProgram(
        StrFormat("syn-%02d", i), program, opts, rng));
  }
  return ds;
}

Dataset MakeSynRp(const SyntheticOptions& opts, Rng* rng) {
  Dataset ds;
  ds.name = "Syn-RP";
  static constexpr char kFrom[] = " -_/.,:";
  static constexpr char kTo[] = "-_/.,:|+";
  for (int i = 0; i < opts.num_tables; ++i) {
    char from = kFrom[rng->NextBounded(sizeof(kFrom) - 1)];
    char to;
    do {
      to = kTo[rng->NextBounded(sizeof(kTo) - 1)];
    } while (to == from);
    TransformProgram program;
    TransformStep step;
    step.Append(std::make_unique<ReplaceCharUnit>(from, to));
    program.AppendStep(std::move(step));
    ds.tables.push_back(MakeTableFromProgram(
        StrFormat("syn-rp-%02d", i), program, opts, rng));
  }
  return ds;
}

Dataset MakeSynSt(const SyntheticOptions& opts, Rng* rng) {
  Dataset ds;
  ds.name = "Syn-ST";
  for (int i = 0; i < opts.num_tables; ++i) {
    // Random substring with start/end chosen to stay productive for the
    // configured length range.
    int start = static_cast<int>(rng->NextInt(0, opts.min_len / 2));
    int end =
        start + static_cast<int>(rng->NextInt(2, std::max(3, opts.min_len)));
    TransformProgram program;
    TransformStep step;
    step.Append(std::make_unique<SubstringUnit>(start, end));
    program.AppendStep(std::move(step));
    ds.tables.push_back(MakeTableFromProgram(
        StrFormat("syn-st-%02d", i), program, opts, rng));
  }
  return ds;
}

Dataset MakeSynRv(const SyntheticOptions& opts, Rng* rng) {
  Dataset ds;
  ds.name = "Syn-RV";
  for (int i = 0; i < opts.num_tables; ++i) {
    TransformProgram program;
    TransformStep step;
    step.Append(std::make_unique<ReverseUnit>());
    program.AppendStep(std::move(step));
    ds.tables.push_back(MakeTableFromProgram(
        StrFormat("syn-rv-%02d", i), program, opts, rng));
  }
  return ds;
}

Dataset MakeSynDefault(Rng* rng) {
  SyntheticOptions opts;  // 10 tables x 100 rows, len 8..35
  return MakeSyn(opts, rng);
}

namespace {
SyntheticOptions SmallSynOptions() {
  SyntheticOptions opts;
  opts.num_tables = 5;
  opts.rows_per_table = 50;
  return opts;
}
}  // namespace

Dataset MakeSynRpDefault(Rng* rng) { return MakeSynRp(SmallSynOptions(), rng); }
Dataset MakeSynStDefault(Rng* rng) { return MakeSynSt(SmallSynOptions(), rng); }
Dataset MakeSynRvDefault(Rng* rng) { return MakeSynRv(SmallSynOptions(), rng); }

}  // namespace dtt
