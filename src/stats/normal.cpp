#include "stats/normal.h"

#include <cmath>
#include <cstddef>

#include "common/error.h"

namespace eta2::stats {
namespace {
constexpr double kInvSqrt2Pi = 0.3989422804014327;  // 1/sqrt(2π)
constexpr double kSqrt2 = 1.4142135623730951;
}  // namespace

double normal_pdf(double x) { return kInvSqrt2Pi * std::exp(-0.5 * x * x); }

double normal_pdf(double x, double mean, double stddev) {
  require(stddev > 0.0, "normal_pdf: stddev must be positive");
  const double z = (x - mean) / stddev;
  return normal_pdf(z) / stddev;
}

double normal_cdf(double x) { return 0.5 * std::erfc(-x / kSqrt2); }

double normal_cdf(double x, double mean, double stddev) {
  require(stddev > 0.0, "normal_cdf: stddev must be positive");
  return normal_cdf((x - mean) / stddev);
}

double normal_quantile(double p) {
  require(p > 0.0 && p < 1.0, "normal_quantile: p must be in (0,1)");
  // Acklam's approximation.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double x = 0.0;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement step.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * 3.141592653589793) * std::exp(0.5 * x * x);
  x = x - u / (1.0 + 0.5 * x * u);
  return x;
}

double z_critical(double alpha) {
  require(alpha > 0.0 && alpha < 1.0, "z_critical: alpha must be in (0,1)");
  return normal_quantile(1.0 - alpha / 2.0);
}

double accuracy_probability(double expertise, double epsilon) {
  require(expertise >= 0.0, "accuracy_probability: expertise must be >= 0");
  require(epsilon >= 0.0, "accuracy_probability: epsilon must be >= 0");
  return 2.0 * normal_cdf(epsilon * expertise) - 1.0;
}

void accuracy_probability_batch(std::span<const double> expertise,
                                double epsilon, std::span<double> out) {
  require(out.size() == expertise.size(),
          "accuracy_probability_batch: span size mismatch");
  require(epsilon >= 0.0, "accuracy_probability_batch: epsilon must be >= 0");
  // Hoisted per-cell validation: one fold over the batch instead of two
  // require()s per cell. NaN compares false against >= 0, so corrupt cells
  // fail exactly the test the scalar entry point applies.
  std::size_t bad = 0;
  for (const double u : expertise) bad += u >= 0.0 ? 0u : 1u;
  require(bad == 0, "accuracy_probability_batch: expertise must be >= 0");
  // Scalar path: 2·(erfc(−εu/√2)/2) − 1. The doubling cancels the half
  // bit-exactly (erfc of a non-positive argument lies in [1, 2] — never
  // subnormal), so erfc(−εu/√2) − 1 is the identical value with one multiply
  // fewer per cell.
  for (std::size_t i = 0; i < expertise.size(); ++i) {
    out[i] = std::erfc(-(epsilon * expertise[i]) / kSqrt2) - 1.0;
  }
}

}  // namespace eta2::stats
