#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "letkf/eigen.hpp"
#include "util/rng.hpp"

namespace bda::letkf {
namespace {

// Verify A = V diag(w) V^T and V^T V = I for a solved system.
template <typename T>
void check_decomposition(std::size_t n, const std::vector<T>& a_orig,
                         const std::vector<T>& v, const std::vector<T>& w,
                         double tol) {
  // Orthonormality.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      double dot = 0;
      for (std::size_t k = 0; k < n; ++k)
        dot += double(v[k * n + i]) * double(v[k * n + j]);
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, tol) << "ortho " << i << "," << j;
    }
  // Reconstruction.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0;
      for (std::size_t k = 0; k < n; ++k)
        s += double(v[i * n + k]) * double(w[k]) * double(v[j * n + k]);
      EXPECT_NEAR(s, double(a_orig[i * n + j]), tol) << i << "," << j;
    }
}

TEST(SymEigen, DiagonalMatrix) {
  std::vector<double> a = {3, 0, 0, 0, 1, 0, 0, 0, 2};
  auto v = a;
  std::vector<double> w(3);
  ASSERT_TRUE(sym_eigen<double>(3, v.data(), w.data()));
  EXPECT_NEAR(w[0], 1.0, 1e-12);
  EXPECT_NEAR(w[1], 2.0, 1e-12);
  EXPECT_NEAR(w[2], 3.0, 1e-12);
  check_decomposition(3, a, v, w, 1e-10);
}

TEST(SymEigen, Known2x2) {
  // [[2,1],[1,2]] -> eigenvalues 1 and 3.
  std::vector<float> a = {2, 1, 1, 2};
  auto v = a;
  std::vector<float> w(2);
  ASSERT_TRUE(sym_eigen<float>(2, v.data(), w.data()));
  EXPECT_NEAR(w[0], 1.0f, 1e-5f);
  EXPECT_NEAR(w[1], 3.0f, 1e-5f);
  check_decomposition<float>(2, a, v, w, 1e-4);
}

TEST(SymEigen, OneByOne) {
  std::vector<double> a = {7.5};
  std::vector<double> w(1);
  ASSERT_TRUE(sym_eigen<double>(1, a.data(), w.data()));
  EXPECT_DOUBLE_EQ(w[0], 7.5);
  EXPECT_NEAR(std::abs(a[0]), 1.0, 1e-12);
}

TEST(SymEigen, EigenvaluesAscending) {
  Rng rng(7);
  const std::size_t n = 24;
  std::vector<double> a(n * n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      const double x = rng.normal();
      a[i * n + j] = x;
      a[j * n + i] = x;
    }
  std::vector<double> w(n);
  ASSERT_TRUE(sym_eigen<double>(n, a.data(), w.data()));
  for (std::size_t i = 1; i < n; ++i) EXPECT_LE(w[i - 1], w[i]);
}

class SymEigenSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SymEigenSizes, RandomSymmetricDouble) {
  const std::size_t n = GetParam();
  Rng rng(100 + n);
  std::vector<double> a(n * n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      const double x = rng.normal();
      a[i * n + j] = x;
      a[j * n + i] = x;
    }
  auto v = a;
  std::vector<double> w(n);
  ASSERT_TRUE(sym_eigen<double>(n, v.data(), w.data()));
  check_decomposition(n, a, v, w, 1e-8 * double(n));
}

TEST_P(SymEigenSizes, SpdLetkfShapeFloat) {
  // The LETKF matrix: (k-1)I + Y^T R^-1 Y, SPD with eigenvalues >= k-1.
  const std::size_t k = GetParam();
  const std::size_t p = 2 * k;
  Rng rng(200 + k);
  std::vector<float> y(p * k);
  for (auto& x : y) x = float(rng.normal());
  std::vector<float> a(k * k, 0.0f);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < k; ++j) {
      float s = (i == j) ? float(k - 1) : 0.0f;
      for (std::size_t n = 0; n < p; ++n) s += y[n * k + i] * y[n * k + j];
      a[i * k + j] = s;
    }
  auto v = a;
  std::vector<float> w(k);
  ASSERT_TRUE(sym_eigen<float>(k, v.data(), w.data()));
  for (std::size_t i = 0; i < k; ++i)
    EXPECT_GT(w[i], 0.5f * float(k - 1));  // SPD, bounded below
  check_decomposition<float>(k, a, v, w,
                             2e-2 * double(k));  // float tolerance
}

INSTANTIATE_TEST_SUITE_P(Sizes, SymEigenSizes,
                         ::testing::Values(2, 3, 5, 8, 16, 33, 64));

TEST(SymEigen, WorkspaceReuseDoesNotLeakState) {
  // Solving problem B after problem A through the same caller scratch gives
  // the same result as solving B with fresh scratch.
  const std::size_t n = 8;
  auto make = [&](std::uint64_t seed) {
    Rng r(seed);
    std::vector<float> a(n * n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j <= i; ++j) {
        const float x = float(r.normal());
        a[i * n + j] = x;
        a[j * n + i] = x;
      }
    return a;
  };
  std::vector<float> e;
  auto a1 = make(1), b_after = make(2), b_fresh = make(2);
  std::vector<float> w(n), w_after(n), w_fresh(n);
  ASSERT_TRUE(sym_eigen<float>(n, a1.data(), w.data(), e));
  ASSERT_TRUE(sym_eigen<float>(n, b_after.data(), w_after.data(), e));
  std::vector<float> fresh;
  ASSERT_TRUE(sym_eigen<float>(n, b_fresh.data(), w_fresh.data(), fresh));
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(w_after[i], w_fresh[i]);
  for (std::size_t x = 0; x < n * n; ++x) EXPECT_EQ(b_after[x], b_fresh[x]);
}

TEST(Hypot2, ExtremeMagnitudesSinglePrecision) {
  // sqrt(a*a + b*b) overflows float for |a| above ~1.8e19 and flushes to
  // zero for subnormal-squared inputs; the scaled formulation must not.
  const float big = detail::hypot2(3e19f, 4e19f);
  EXPECT_TRUE(std::isfinite(big));
  EXPECT_NEAR(big, 5e19f, 5e19f * 1e-6f);

  const float tiny = detail::hypot2(3e-30f, 4e-30f);
  EXPECT_GT(tiny, 0.0f);
  EXPECT_NEAR(tiny, 5e-30f, 5e-30f * 1e-6f);

  // A subnormal paired with zero survives as itself.
  const float sub = 1e-41f;
  EXPECT_EQ(detail::hypot2(sub, 0.0f), sub);
  EXPECT_EQ(detail::hypot2(0.0f, 0.0f), 0.0f);
}

TEST(Hypot2, SignInsensitiveAndOrderInsensitive) {
  EXPECT_EQ(detail::hypot2(-3.0f, 4.0f), detail::hypot2(3.0f, 4.0f));
  EXPECT_EQ(detail::hypot2(4.0f, 3.0f), detail::hypot2(3.0f, 4.0f));
  EXPECT_NEAR(detail::hypot2(3.0, 4.0), 5.0, 1e-12);
}

TEST(Hypot2, MatchesNaiveInSafeRange) {
  Rng rng(99);
  for (int t = 0; t < 100; ++t) {
    const float a = float(rng.normal());
    const float b = float(rng.normal());
    const float naive = std::sqrt(a * a + b * b);
    EXPECT_NEAR(detail::hypot2(a, b), naive, 4e-7f * (std::abs(naive) + 1.0f));
  }
}

TEST(SymEigen, HandlesUnitSizeProblems) {
  // n = 1 takes the up-front guard: no QL sweep, the eigenvector is
  // trivially [1], and the caller scratch is never needed.
  std::vector<double> e;
  for (const double x : {7.5, -3.5, 0.25}) {
    std::vector<double> a = {x};
    std::vector<double> w(1);
    EXPECT_TRUE(sym_eigen<double>(1, a.data(), w.data(), e));
    EXPECT_DOUBLE_EQ(w[0], x);
    EXPECT_DOUBLE_EQ(a[0], 1.0);
  }
}

TEST(SymEigen, ReportsPerProblemNonConvergence) {
  // The QL iteration cap is the deterministic fault knob: with 0 sweeps
  // allowed, any matrix that needs off-diagonal work fails, while a
  // diagonal matrix (subdiagonal exactly zero) still converges.  The
  // failure must be reported per problem, not swallowed.
  const std::size_t n = 8;
  Rng rng(4321);
  std::vector<double> diag(n * n, 0.0), dense(n * n);
  for (std::size_t i = 0; i < n; ++i) diag[i * n + i] = double(i + 1);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      const double x = rng.normal();
      dense[i * n + j] = x;
      dense[j * n + i] = x;
    }
  auto dense_default = dense;
  std::vector<double> w(n), e;
  EXPECT_TRUE(sym_eigen<double>(n, diag.data(), w.data(), e, 0));
  EXPECT_FALSE(sym_eigen<double>(n, dense.data(), w.data(), e, 0));
  // The same scratch then solves the dense matrix at the default cap.
  EXPECT_TRUE(sym_eigen<double>(n, dense_default.data(), w.data(), e));
}

TEST(SymEigen, RepeatedEigenvaluesHandled) {
  // Identity: all eigenvalues 1, any orthonormal V works.
  const std::size_t n = 6;
  std::vector<double> a(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) a[i * n + i] = 1.0;
  auto v = a;
  std::vector<double> w(n);
  ASSERT_TRUE(sym_eigen<double>(n, v.data(), w.data()));
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(w[i], 1.0, 1e-12);
}

}  // namespace
}  // namespace bda::letkf
