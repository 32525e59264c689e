// One-shot expertise-aware truth discovery: the offline subset of ETA² for
// callers that already hold a batch of tasks and their crowd observations
// and only want the truth (no allocation, no multi-day loop). Runs Module 1
// (clustering of task descriptions — or accepts external domain labels) and
// Module 2 (the joint MLE of Eqs. 5–6) once.
#ifndef ETA2_CORE_ONE_SHOT_H
#define ETA2_CORE_ONE_SHOT_H

#include <span>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "text/embedder.h"
#include "truth/eta2_mle.h"
#include "truth/observation.h"

namespace eta2::core {

struct OneShotOptions {
  double gamma = 0.5;  // clustering threshold fraction of d*
  truth::MleOptions mle;
};

struct OneShotResult {
  std::vector<double> truth;   // per task (NaN without observations)
  std::vector<double> sigma;   // per task base numbers
  std::vector<truth::DomainIndex> task_domains;  // dense, [0, domain_count)
  std::size_t domain_count = 0;
  Matrix expertise;  // user × domain: expertise(i, k)
  int iterations = 0;
  bool converged = false;
};

// Clusters `descriptions` into expertise domains with the given embedder,
// then runs the joint MLE on `data`. Requires one description per task of
// `data` and a non-empty batch.
[[nodiscard]] OneShotResult analyze_described(
    std::span<const std::string> descriptions,
    const truth::ObservationSet& data, const text::Embedder& embedder,
    const OneShotOptions& options = {});

// Same, with externally supplied domain labels (any non-negative ids; they
// are densified internally). Requires one label per task.
[[nodiscard]] OneShotResult analyze_labeled(
    std::span<const std::size_t> task_domains,
    const truth::ObservationSet& data, const OneShotOptions& options = {});

}  // namespace eta2::core

#endif  // ETA2_CORE_ONE_SHOT_H
