// Umbrella header: the library's public surface in one include.
//
//   #include "eta2.h"
//
//   eta2::core::Eta2Server      — the full per-day ETA² pipeline (Fig. 1)
//   eta2::core::analyze_*       — one-shot truth discovery on a batch
//   eta2::truth::*              — truth methods: ETA² MLE + baselines
//   eta2::alloc::*              — max-quality / min-cost task allocation
//   eta2::clustering::*         — dynamic hierarchical clustering + metrics
//   eta2::text::*               — skip-gram embeddings, pair-word analysis
//   eta2::stats::*              — distributions, GoF tests, CIs
//   eta2::sim::*                — dataset generators + simulation harness
//   eta2::io::*                 — dataset / result persistence
#ifndef ETA2_ETA2_H
#define ETA2_ETA2_H

#include "alloc/allocation.h"
#include "alloc/baseline_allocators.h"
#include "alloc/max_quality.h"
#include "alloc/min_cost.h"
#include "clustering/dynamic_clusterer.h"
#include "clustering/metrics.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/config.h"
#include "core/eta2_server.h"
#include "core/one_shot.h"
#include "io/dataset_io.h"
#include "io/results_io.h"
#include "sim/dataset.h"
#include "sim/experiment.h"
#include "sim/simulation.h"
#include "stats/chi_square.h"
#include "stats/confidence.h"
#include "stats/descriptive.h"
#include "stats/histogram.h"
#include "stats/ks_test.h"
#include "stats/normal.h"
#include "text/embedder.h"
#include "text/pairword.h"
#include "text/skipgram.h"
#include "truth/baselines.h"
#include "truth/eta2_mle.h"
#include "truth/expertise_store.h"
#include "truth/task_confidence.h"
#include "truth/variance_em.h"

#endif  // ETA2_ETA2_H
