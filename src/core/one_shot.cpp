#include "core/one_shot.h"

#include <map>

#include "clustering/dynamic_clusterer.h"
#include "common/error.h"
#include "text/pairword.h"

namespace eta2::core {
namespace {

OneShotResult run_mle(std::vector<truth::DomainIndex> dense,
                      std::size_t domain_count,
                      const truth::ObservationSet& data,
                      const OneShotOptions& options) {
  const truth::Eta2Mle mle(options.mle);
  const truth::MleResult fit = mle.estimate(data, dense, domain_count);
  OneShotResult result;
  result.truth = fit.mu;
  result.sigma = fit.sigma;
  result.task_domains = std::move(dense);
  result.domain_count = domain_count;
  result.expertise = fit.expertise;
  result.iterations = fit.iterations;
  result.converged = fit.converged;
  return result;
}

}  // namespace

OneShotResult analyze_described(std::span<const std::string> descriptions,
                                const truth::ObservationSet& data,
                                const text::Embedder& embedder,
                                const OneShotOptions& options) {
  require(!descriptions.empty(), "analyze_described: empty batch");
  require(descriptions.size() == data.task_count(),
          "analyze_described: one description per task required");

  std::vector<text::Embedding> vectors;
  vectors.reserve(descriptions.size());
  for (const std::string& d : descriptions) {
    vectors.push_back(text::semantic_vector(d, embedder));
  }
  clustering::DynamicClusterer clusterer(options.gamma);
  const clustering::ClusterUpdate update = clusterer.add_tasks(vectors);

  // Densify the clusterer's stable ids.
  std::map<clustering::DomainId, truth::DomainIndex> dense_of;
  std::vector<truth::DomainIndex> dense(descriptions.size(), 0);
  for (std::size_t j = 0; j < descriptions.size(); ++j) {
    const auto [it, inserted] =
        dense_of.try_emplace(update.assignments[j], dense_of.size());
    dense[j] = it->second;
  }
  return run_mle(std::move(dense), dense_of.size(), data, options);
}

OneShotResult analyze_labeled(std::span<const std::size_t> task_domains,
                              const truth::ObservationSet& data,
                              const OneShotOptions& options) {
  require(!task_domains.empty(), "analyze_labeled: empty batch");
  require(task_domains.size() == data.task_count(),
          "analyze_labeled: one label per task required");
  std::map<std::size_t, truth::DomainIndex> dense_of;
  std::vector<truth::DomainIndex> dense(task_domains.size(), 0);
  for (std::size_t j = 0; j < task_domains.size(); ++j) {
    const auto [it, inserted] =
        dense_of.try_emplace(task_domains[j], dense_of.size());
    dense[j] = it->second;
  }
  return run_mle(std::move(dense), dense_of.size(), data, options);
}

}  // namespace eta2::core
