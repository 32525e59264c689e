#include "stats/normal.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace eta2::stats {
namespace {

TEST(NormalPdfTest, StandardValues) {
  EXPECT_NEAR(normal_pdf(0.0), 0.3989422804014327, 1e-12);
  EXPECT_NEAR(normal_pdf(1.0), 0.24197072451914337, 1e-12);
  EXPECT_NEAR(normal_pdf(-1.0), normal_pdf(1.0), 1e-15);
}

TEST(NormalPdfTest, ScaledDensityIntegratesConsistently) {
  // f(x; m, s) = f((x-m)/s) / s
  EXPECT_NEAR(normal_pdf(3.0, 3.0, 2.0), normal_pdf(0.0) / 2.0, 1e-12);
  EXPECT_NEAR(normal_pdf(5.0, 3.0, 2.0), normal_pdf(1.0) / 2.0, 1e-12);
}

TEST(NormalPdfTest, RejectsNonPositiveStddev) {
  EXPECT_THROW(normal_pdf(0.0, 0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(normal_pdf(0.0, 0.0, -1.0), std::invalid_argument);
}

TEST(NormalCdfTest, KnownQuantiles) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.96), 0.9750021048517795, 1e-9);
  EXPECT_NEAR(normal_cdf(-1.96), 1.0 - 0.9750021048517795, 1e-9);
  EXPECT_NEAR(normal_cdf(3.0), 0.9986501019683699, 1e-9);
}

TEST(NormalCdfTest, Monotone) {
  double prev = 0.0;
  for (double x = -6.0; x <= 6.0; x += 0.05) {
    const double c = normal_cdf(x);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(NormalQuantileTest, InvertsCdf) {
  for (double p = 0.001; p < 1.0; p += 0.0217) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-10) << "p=" << p;
  }
}

TEST(NormalQuantileTest, TailAccuracy) {
  EXPECT_NEAR(normal_quantile(0.975), 1.959963984540054, 1e-9);
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(normal_quantile(1e-6), -4.753424308822899, 1e-6);
}

TEST(NormalQuantileTest, RejectsOutOfRange) {
  EXPECT_THROW(normal_quantile(0.0), std::invalid_argument);
  EXPECT_THROW(normal_quantile(1.0), std::invalid_argument);
  EXPECT_THROW(normal_quantile(-0.5), std::invalid_argument);
}

TEST(ZCriticalTest, StandardLevels) {
  EXPECT_NEAR(z_critical(0.05), 1.959963984540054, 1e-9);
  EXPECT_NEAR(z_critical(0.1), 1.6448536269514722, 1e-9);
  EXPECT_NEAR(z_critical(0.01), 2.5758293035489004, 1e-8);
}

TEST(AccuracyProbabilityTest, PaperEq11) {
  // p = 2Φ(εu) − 1
  EXPECT_NEAR(accuracy_probability(0.0, 0.1), 0.0, 1e-15);
  EXPECT_NEAR(accuracy_probability(1.0, 0.1),
              2.0 * normal_cdf(0.1) - 1.0, 1e-12);
  EXPECT_NEAR(accuracy_probability(19.6, 0.1),
              2.0 * normal_cdf(1.96) - 1.0, 1e-12);
}

TEST(AccuracyProbabilityTest, MonotoneInExpertise) {
  double prev = -1.0;
  for (double u = 0.0; u <= 30.0; u += 0.5) {
    const double p = accuracy_probability(u, 0.1);
    EXPECT_GT(p, prev);
    EXPECT_GE(p, 0.0);
    EXPECT_LT(p, 1.0);
    prev = p;
  }
}

TEST(AccuracyProbabilityTest, RejectsNegativeInputs) {
  EXPECT_THROW(accuracy_probability(-1.0, 0.1), std::invalid_argument);
  EXPECT_THROW(accuracy_probability(1.0, -0.1), std::invalid_argument);
}

// --- accuracy_probability_batch -------------------------------------------

// ULP distance between two finite doubles of the same sign via the ordered
// bit-pattern trick (adjacent doubles differ by 1).
std::uint64_t ulp_distance(double a, double b) {
  const auto bits = [](double x) {
    std::uint64_t u = 0;
    std::memcpy(&u, &x, sizeof(u));
    return u;
  };
  const std::uint64_t ua = bits(a);
  const std::uint64_t ub = bits(b);
  return ua > ub ? ua - ub : ub - ua;
}

TEST(AccuracyBatchTest, ExactTierIsBitIdenticalToScalar) {
  std::vector<double> expertise;
  for (int i = 0; i < 400; ++i) expertise.push_back(static_cast<double>(i) * 0.07);
  expertise.push_back(0.0);
  expertise.push_back(1e-12);
  expertise.push_back(1e6);
  for (const double epsilon : {0.0, 0.05, 0.1, 1.0, 3.0}) {
    std::vector<double> out(expertise.size(), -1.0);
    accuracy_probability_batch(expertise, epsilon, out);
    for (std::size_t i = 0; i < expertise.size(); ++i) {
      const double scalar = accuracy_probability(expertise[i], epsilon);
      EXPECT_EQ(ulp_distance(out[i], scalar), 0u)
          << "u=" << expertise[i] << " eps=" << epsilon;
    }
  }
}

TEST(AccuracyBatchTest, HoistedValidationMatchesScalarChecks) {
  std::vector<double> good{0.5, 1.0};
  std::vector<double> out(2, 0.0);
  // Size mismatch is a batch-only precondition.
  std::vector<double> short_out(1, 0.0);
  EXPECT_THROW(
      accuracy_probability_batch(good, 0.1, short_out),
      std::invalid_argument);
  // Negative epsilon and negative expertise throw the same type the scalar
  // entry point throws — validated once per batch, not per cell.
  EXPECT_THROW(accuracy_probability_batch(good, -0.1, out),
               std::invalid_argument);
  std::vector<double> with_negative{0.5, -1.0};
  EXPECT_THROW(accuracy_probability_batch(with_negative, 0.1, out),
               std::invalid_argument);
  // NaN expertise fails the same u >= 0 predicate the scalar require uses.
  std::vector<double> with_nan{0.5, std::nan("")};
  EXPECT_THROW(accuracy_probability_batch(with_nan, 0.1, out),
               std::invalid_argument);
  // Empty batch is a no-op, not an error.
  std::vector<double> empty;
  std::vector<double> empty_out;
  EXPECT_NO_THROW(accuracy_probability_batch(empty, 0.1, empty_out));
}

// Property sweep: Φ(x) + Φ(−x) = 1 for all x.
class NormalSymmetrySweep : public ::testing::TestWithParam<double> {};

TEST_P(NormalSymmetrySweep, CdfSymmetry) {
  const double x = GetParam();
  EXPECT_NEAR(normal_cdf(x) + normal_cdf(-x), 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Points, NormalSymmetrySweep,
                         ::testing::Values(0.0, 0.1, 0.5, 1.0, 1.96, 2.5, 4.0,
                                           6.0, 8.0));

}  // namespace
}  // namespace eta2::stats
