#ifndef DTT_DATA_REALWORLD_DATASETS_H_
#define DTT_DATA_REALWORLD_DATASETS_H_

#include "data/knowledge_base.h"
#include "data/table.h"

namespace dtt {

/// Generation knobs for the simulated real-world benchmarks. Defaults match
/// the statistics reported in §5.2 of the paper (see docs/architecture.md,
/// "Substitutions", for the rationale).
struct RealWorldOptions {
  int wt_tables = 31;     // Web Tables: 31 pairs, ~92 rows, ~31 chars, noisy
  int ss_tables = 108;    // Spreadsheet: 108 pairs, ~34 rows, ~19 chars, clean
  int kbwt_tables = 81;   // KB Web Tables: 81 pairs, semantic transformations
  /// Natural noise ratio of WT rows (inconsistent or dirty targets).
  double wt_noise = 0.12;
  /// Residual noise of SS rows.
  double ss_noise = 0.01;
  /// Row-count scale factor (sweeps use < 1 to shrink all tables uniformly).
  double row_scale = 1.0;
};

/// WT-sim: web-table style column pairs across ~17 textual topics (names,
/// dates, phones, urls, prices, citations, addresses); includes per-row
/// conditional formatting (Figure 1 of the paper) and natural noise.
Dataset MakeWebTables(const RealWorldOptions& opts, Rng* rng);

/// SS-sim: FlashFill/BlinkFill-style spreadsheet cleaning tasks; low noise.
/// Includes the "phone-10-short" (7 rows) and "phone-10-long" (100 rows)
/// tables referenced by the paper's runtime experiment (§5.5).
Dataset MakeSpreadsheet(const RealWorldOptions& opts, Rng* rng);

/// KBWT-sim: tables whose mapping requires knowledge-base lookups. General
/// relations (states, countries, months, elements) are drawn from
/// KnowledgeBase::Builtin(); parametric relations (ISBN->author, city->zip)
/// are random mappings no model can know (§5.5 discussion).
Dataset MakeKbwt(const RealWorldOptions& opts, Rng* rng);

/// Looks up a table by name within a dataset; nullptr when absent.
const TablePair* FindTable(const Dataset& ds, const std::string& name);

}  // namespace dtt

#endif  // DTT_DATA_REALWORLD_DATASETS_H_
