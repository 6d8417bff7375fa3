#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "letkf/letkf_core.hpp"
#include "util/rng.hpp"

namespace bda::letkf {
namespace {

// Construct an ensemble of scalars with *exact* sample mean and variance so
// the Kalman-filter comparison has no sampling error: x_m = mean + sd * z_m
// where z has exact zero mean, unit sample variance.
std::vector<double> exact_ensemble(std::size_t k, double mean, double sd,
                                   Rng& rng) {
  std::vector<double> z(k);
  double zm = 0;
  for (auto& v : z) {
    v = rng.normal();
    zm += v;
  }
  zm /= double(k);
  double s2 = 0;
  for (auto& v : z) {
    v -= zm;
    s2 += v * v;
  }
  const double scale = sd / std::sqrt(s2 / double(k - 1));
  std::vector<double> x(k);
  for (std::size_t m = 0; m < k; ++m) x[m] = mean + scale * z[m];
  return x;
}

struct Moments {
  double mean, var;
};
Moments moments(const std::vector<double>& x) {
  double m = 0;
  for (double v : x) m += v;
  m /= double(x.size());
  double s2 = 0;
  for (double v : x) s2 += (v - m) * (v - m);
  return {m, s2 / double(x.size() - 1)};
}

// Apply the weight matrix to a state ensemble (as the driver does).
std::vector<double> apply_weights(const std::vector<double>& xb,
                                  const std::vector<double>& W) {
  const std::size_t k = xb.size();
  double mean = 0;
  for (double v : xb) mean += v;
  mean /= double(k);
  std::vector<double> pert(k);
  for (std::size_t m = 0; m < k; ++m) pert[m] = xb[m] - mean;
  std::vector<double> xa(k);
  for (std::size_t m = 0; m < k; ++m) {
    double s = mean;
    for (std::size_t l = 0; l < k; ++l) s += pert[l] * W[l * k + m];
    xa[m] = s;
  }
  return xa;
}

TEST(LetkfCore, ScalarMatchesKalmanFilter) {
  // One state variable observed directly: the LETKF analysis mean and
  // variance must reproduce the exact Kalman filter.
  const std::size_t k = 200;
  Rng rng(2021);
  const double xb_mean = 5.0, xb_sd = 2.0;
  const double yo = 8.0, r_sd = 1.0;

  const auto xb = exact_ensemble(k, xb_mean, xb_sd, rng);
  // Y = H X' = X' (H identity), row-major p x k with p = 1.
  const auto mb = moments(xb);
  std::vector<double> Y(k);
  for (std::size_t m = 0; m < k; ++m) Y[m] = xb[m] - mb.mean;
  std::vector<double> d = {yo - mb.mean};
  std::vector<double> rinv = {1.0 / (r_sd * r_sd)};

  LetkfWorkspace<double> ws(k);
  std::vector<double> W(k * k);
  ASSERT_TRUE(letkf_weights<double>(k, 1, Y.data(), d.data(), rinv.data(),
                                    /*rtpp=*/0.0, /*rho=*/1.0, ws, W.data()));
  const auto xa = apply_weights(xb, W);
  const auto ma = moments(xa);

  // Kalman: gain = s_b^2 / (s_b^2 + r^2); xa = xb + g (yo - xb);
  // s_a^2 = (1 - g) s_b^2.
  const double g = xb_sd * xb_sd / (xb_sd * xb_sd + r_sd * r_sd);
  EXPECT_NEAR(ma.mean, xb_mean + g * (yo - xb_mean), 1e-6);
  EXPECT_NEAR(ma.var, (1.0 - g) * xb_sd * xb_sd, 1e-5);
}

TEST(LetkfCore, MultipleObsReduceVarianceFurther) {
  const std::size_t k = 100;
  Rng rng(31);
  const auto xb = exact_ensemble(k, 0.0, 1.0, rng);
  const auto mb = moments(xb);

  auto analyze = [&](std::size_t p) {
    std::vector<double> Y(p * k), d(p), rinv(p, 1.0);
    for (std::size_t n = 0; n < p; ++n) {
      for (std::size_t m = 0; m < k; ++m) Y[n * k + m] = xb[m] - mb.mean;
      d[n] = 2.0 - mb.mean;
    }
    LetkfWorkspace<double> ws(k);
    std::vector<double> W(k * k);
    EXPECT_TRUE(letkf_weights<double>(k, p, Y.data(), d.data(), rinv.data(),
                                      0.0, 1.0, ws, W.data()));
    return moments(apply_weights(xb, W));
  };
  const auto one = analyze(1);
  const auto four = analyze(4);
  EXPECT_LT(four.var, one.var);
  // Four identical obs of the same thing = one obs with r/4 variance.
  const double expected = 1.0 / (1.0 + 4.0);
  EXPECT_NEAR(four.var, expected, 1e-5);
  EXPECT_GT(four.mean, one.mean);  // pulled harder toward yo = 2
}

TEST(LetkfCore, AnalysisSpreadNeverExceedsBackground) {
  const std::size_t k = 64;
  Rng rng(32);
  for (int trial = 0; trial < 10; ++trial) {
    const auto xb = exact_ensemble(k, rng.normal(), 1.5, rng);
    const auto mb = moments(xb);
    const std::size_t p = 3;
    std::vector<double> Y(p * k), d(p), rinv(p);
    for (std::size_t n = 0; n < p; ++n) {
      for (std::size_t m = 0; m < k; ++m)
        Y[n * k + m] = (xb[m] - mb.mean) * (0.5 + 0.5 * double(n));
      d[n] = rng.normal();
      rinv[n] = 1.0 / (0.5 + rng.uniform());
    }
    LetkfWorkspace<double> ws(k);
    std::vector<double> W(k * k);
    ASSERT_TRUE(letkf_weights<double>(k, p, Y.data(), d.data(), rinv.data(),
                                      0.0, 1.0, ws, W.data()));
    const auto ma = moments(apply_weights(xb, W));
    EXPECT_LE(ma.var, moments(xb).var * (1.0 + 1e-9));
  }
}

TEST(LetkfCore, RtppOneRestoresPriorPerturbations) {
  // alpha = 1: analysis perturbations = background perturbations exactly;
  // only the mean moves.
  const std::size_t k = 50;
  Rng rng(33);
  const auto xb = exact_ensemble(k, 1.0, 2.0, rng);
  const auto mb = moments(xb);
  std::vector<double> Y(k), d = {3.0}, rinv = {1.0};
  for (std::size_t m = 0; m < k; ++m) Y[m] = xb[m] - mb.mean;
  LetkfWorkspace<double> ws(k);
  std::vector<double> W(k * k);
  ASSERT_TRUE(letkf_weights<double>(k, 1, Y.data(), d.data(), rinv.data(),
                                    1.0, 1.0, ws, W.data()));
  const auto xa = apply_weights(xb, W);
  const auto ma = moments(xa);
  EXPECT_NEAR(ma.var, mb.var, 1e-9);   // spread preserved
  EXPECT_GT(ma.mean, mb.mean);         // mean still updated
  // Member-wise: perturbation m unchanged.
  for (std::size_t m = 0; m < k; ++m)
    EXPECT_NEAR(xa[m] - ma.mean, xb[m] - mb.mean, 1e-8);
}

TEST(LetkfCore, PaperRtppDampsSpreadReduction) {
  // alpha = 0.95 (Table 2): the analysis spread stays close to the prior
  // spread even with strong observations.
  const std::size_t k = 50;
  Rng rng(34);
  const auto xb = exact_ensemble(k, 0.0, 1.0, rng);
  const auto mb = moments(xb);
  std::vector<double> Y(k), d = {0.5}, rinv = {100.0};  // sharp obs
  for (std::size_t m = 0; m < k; ++m) Y[m] = xb[m] - mb.mean;
  LetkfWorkspace<double> ws(k);
  std::vector<double> W0(k * k), W95(k * k);
  ASSERT_TRUE(letkf_weights<double>(k, 1, Y.data(), d.data(), rinv.data(),
                                    0.0, 1.0, ws, W0.data()));
  ASSERT_TRUE(letkf_weights<double>(k, 1, Y.data(), d.data(), rinv.data(),
                                    0.95, 1.0, ws, W95.data()));
  const auto v0 = moments(apply_weights(xb, W0)).var;
  const auto v95 = moments(apply_weights(xb, W95)).var;
  EXPECT_LT(v0, 0.1);           // raw LETKF collapses against rinv=100
  EXPECT_GT(v95, 0.8);          // RTPP keeps most of the prior spread
  EXPECT_LE(v95, moments(xb).var + 1e-9);
}

TEST(LetkfCore, InflationIncreasesWeightOnObservations) {
  const std::size_t k = 40;
  Rng rng(35);
  const auto xb = exact_ensemble(k, 0.0, 1.0, rng);
  const auto mb = moments(xb);
  std::vector<double> Y(k), d = {2.0}, rinv = {1.0};
  for (std::size_t m = 0; m < k; ++m) Y[m] = xb[m] - mb.mean;
  LetkfWorkspace<double> ws(k);
  std::vector<double> W1(k * k), W2(k * k);
  ASSERT_TRUE(letkf_weights<double>(k, 1, Y.data(), d.data(), rinv.data(),
                                    0.0, 1.0, ws, W1.data()));
  ASSERT_TRUE(letkf_weights<double>(k, 1, Y.data(), d.data(), rinv.data(),
                                    0.0, 1.5, ws, W2.data()));
  const double mean1 = moments(apply_weights(xb, W1)).mean;
  const double mean2 = moments(apply_weights(xb, W2)).mean;
  // rho > 1 inflates background variance -> analysis trusts obs more.
  EXPECT_GT(mean2, mean1);
}

TEST(LetkfCore, UncorrelatedVariableUnchanged) {
  // Two-variable state; variable 2's ensemble perturbations are orthogonal
  // to the observed variable's -> its analysis equals its background.
  const std::size_t k = 4;
  // Hand-built perturbations: var1 = [1,-1,1,-1], var2 = [1,1,-1,-1];
  // these are orthogonal in ensemble space.
  std::vector<double> x1 = {1, -1, 1, -1}, x2 = {1, 1, -1, -1};
  std::vector<double> Y(k);
  for (std::size_t m = 0; m < k; ++m) Y[m] = x1[m];  // observe var1
  std::vector<double> d = {0.7}, rinv = {2.0};
  LetkfWorkspace<double> ws(k);
  std::vector<double> W(k * k);
  ASSERT_TRUE(letkf_weights<double>(k, 1, Y.data(), d.data(), rinv.data(),
                                    0.0, 1.0, ws, W.data()));
  const auto xa1 = apply_weights(x1, W);
  const auto xa2 = apply_weights(x2, W);
  // var1 moved toward the innovation; var2 mean unchanged.
  EXPECT_GT(moments(xa1).mean, 0.0);
  EXPECT_NEAR(moments(xa2).mean, 0.0, 1e-9);
  EXPECT_NEAR(moments(xa2).var, moments(x2).var, 1e-7);
}

TEST(LetkfCore, SingleFloatPrecisionStable) {
  // Same scalar KF check in float (the paper's production precision).
  const std::size_t k = 100;
  Rng rng(36);
  std::vector<float> xb(k);
  {
    const auto xd = exact_ensemble(k, 5.0, 2.0, rng);
    for (std::size_t m = 0; m < k; ++m) xb[m] = float(xd[m]);
  }
  double mean = 0;
  for (float v : xb) mean += double(v);
  mean /= double(k);
  std::vector<float> Y(k);
  for (std::size_t m = 0; m < k; ++m) Y[m] = float(double(xb[m]) - mean);
  std::vector<float> d = {float(8.0 - mean)}, rinv = {1.0f};
  LetkfWorkspace<float> ws(k);
  std::vector<float> W(k * k);
  ASSERT_TRUE(letkf_weights<float>(k, 1, Y.data(), d.data(), rinv.data(),
                                   0.0f, 1.0f, ws, W.data()));
  std::vector<double> xad(k);
  {
    std::vector<double> xbd(xb.begin(), xb.end());
    std::vector<double> Wd(W.begin(), W.end());
    xad = apply_weights(xbd, Wd);
  }
  const double g = 4.0 / 5.0;
  EXPECT_NEAR(moments(xad).mean, 5.0 + g * 3.0, 2e-3);
}

// The naive triple loop the Gram build replaced: one accumulator per entry
// over ascending n, (Y[n,i] rinv[n]) Y[n,j] left-associated, lower triangle
// mirrored from the upper one.
template <typename T>
std::vector<T> naive_gram(std::size_t k, std::size_t p, const T* Y,
                          const T* rinv, T rho) {
  std::vector<T> A(k * k);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = i; j < k; ++j) {
      T s = (i == j) ? T(k - 1) / rho : T(0);
      for (std::size_t n = 0; n < p; ++n)
        s += Y[n * k + i] * rinv[n] * Y[n * k + j];
      A[i * k + j] = s;
      A[j * k + i] = s;
    }
  return A;
}

template <typename T>
void expect_gram_matches_naive(std::size_t k, std::size_t p, Rng& rng) {
  std::vector<T> Y(p * k), rinv(p);
  for (auto& v : Y) v = T(rng.normal());
  for (auto& v : rinv) v = T(0.25 + std::abs(rng.normal()));
  const T rho = T(0.9);
  const std::vector<T> ref = naive_gram(k, p, Y.data(), rinv.data(), rho);
  std::vector<T> A(k * k, T(-7));  // stale contents must be overwritten
  letkf_build_gram(k, p, Y.data(), rinv.data(), rho, A.data());
  std::size_t bad = 0;
  for (std::size_t e = 0; e < k * k; ++e)
    if (std::memcmp(&A[e], &ref[e], sizeof(T)) != 0) ++bad;
  EXPECT_EQ(bad, 0u) << "k=" << k << " p=" << p;
}

TEST(LetkfCore, GramMatchesNaiveTripleLoopBitwise) {
  Rng rng(2023);
  for (std::size_t k : {1, 2, 5, 16, 17, 64, 130})
    for (std::size_t p : {0, 1, 7, 600}) {
      expect_gram_matches_naive<float>(k, p, rng);
      expect_gram_matches_naive<double>(k, p, rng);
    }
}

}  // namespace
}  // namespace bda::letkf
