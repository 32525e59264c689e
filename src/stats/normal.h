// Normal-distribution primitives used across the library: density, CDF Φ,
// quantile (inverse CDF), and the accuracy probability of the paper's Eq. 11,
// p = Φ(ε·u) − Φ(−ε·u), as a scalar and as a batched kernel.
#ifndef ETA2_STATS_NORMAL_H
#define ETA2_STATS_NORMAL_H

#include <span>

namespace eta2::stats {

// Standard normal probability density φ(x).
[[nodiscard]] double normal_pdf(double x);

// Density of N(mean, stddev²). Requires stddev > 0.
[[nodiscard]] double normal_pdf(double x, double mean, double stddev);

// Standard normal CDF Φ(x), accurate to ~1e-15 via std::erfc.
[[nodiscard]] double normal_cdf(double x);

// CDF of N(mean, stddev²). Requires stddev > 0.
[[nodiscard]] double normal_cdf(double x, double mean, double stddev);

// Inverse of Φ: returns z such that Φ(z) = p, for p in (0, 1).
// Acklam's rational approximation refined by one Halley step (|err| < 1e-12).
[[nodiscard]] double normal_quantile(double p);

// z_{α/2}: the two-sided critical value with tail mass α (e.g. α=0.05 -> 1.96).
[[nodiscard]] double z_critical(double alpha);

// Paper Eq. 11: probability that a user with expertise u produces an
// observation whose normalized error is below epsilon:
//   P(|x−μ|/σ < ε) = Φ(ε·u) − Φ(−ε·u) = 2Φ(ε·u) − 1.
// Requires epsilon >= 0 and u >= 0.
[[nodiscard]] double accuracy_probability(double expertise, double epsilon);

// Batched Eq. 11: out[i] = accuracy_probability(expertise[i], epsilon) for
// every element, bit-identical to the scalar entry point. Argument
// validation (epsilon >= 0, every expertise >= 0, equal span sizes) is
// hoisted to one check per batch instead of two require()s per cell, so the
// transform loop stays branch-light — this is the kernel hot paths call from
// inside parallel regions. `expertise` and `out` may alias only if they are
// the same span.
void accuracy_probability_batch(std::span<const double> expertise,
                                double epsilon, std::span<double> out);

}  // namespace eta2::stats

#endif  // ETA2_STATS_NORMAL_H
