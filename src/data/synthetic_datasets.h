#ifndef DTT_DATA_SYNTHETIC_DATASETS_H_
#define DTT_DATA_SYNTHETIC_DATASETS_H_

#include "data/table.h"
#include "transform/sampler.h"

namespace dtt {

/// Generation knobs for the synthetic benchmarks of §5.2. Defaults follow the
/// paper exactly; benches override row counts/lengths for sweeps (§5.9).
struct SyntheticOptions {
  int num_tables = 10;
  int rows_per_table = 100;
  int min_len = 8;
  int max_len = 35;
};

/// Syn: random programs of 3..6 units applied to random input (§5.2).
Dataset MakeSyn(const SyntheticOptions& opts, Rng* rng);

/// Syn-RP (easy): one random character replaced by another across all rows;
/// the replacement operation is NOT in the training unit vocabulary.
Dataset MakeSynRp(const SyntheticOptions& opts, Rng* rng);

/// Syn-ST (medium): a single substring unit with random parameters.
Dataset MakeSynSt(const SyntheticOptions& opts, Rng* rng);

/// Syn-RV (difficult): target is the reversed source; never seen in training.
Dataset MakeSynRv(const SyntheticOptions& opts, Rng* rng);

/// Paper-default instances (10x100 for Syn; 5x50 for the RP/ST/RV variants).
Dataset MakeSynDefault(Rng* rng);
Dataset MakeSynRpDefault(Rng* rng);
Dataset MakeSynStDefault(Rng* rng);
Dataset MakeSynRvDefault(Rng* rng);

}  // namespace dtt

#endif  // DTT_DATA_SYNTHETIC_DATASETS_H_
