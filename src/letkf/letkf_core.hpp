// Ensemble-space LETKF solver (Hunt, Kostelich & Szunyogh 2007).
//
// Everything here operates in the k-dimensional ensemble space of one
// analysis grid point; the driver (letkf.hpp) gathers local observations
// and applies the resulting weight matrix to every state variable at that
// point.  Templated on the scalar type: the paper's production
// configuration runs this in single precision.
//
// Given the local observation-space ensemble perturbations Y (p x k),
// innovations d (p), and localized inverse observation variances rinv (p):
//   A     = (k-1) I / rho + Y^T diag(rinv) Y        (ensemble-space precision)
//   A     = Q diag(lambda) Q^T                      (symmetric eigensolve)
//   Pa    = Q diag(1/lambda) Q^T
//   wbar  = Pa Y^T diag(rinv) d                     (mean update weights)
//   Wp    = Q diag(sqrt((k-1)/lambda)) Q^T          (perturbation weights)
//   Wp   <- alpha I + (1 - alpha) Wp                (RTPP relaxation,
//                                                    Table 2: alpha = 0.95)
//   W[:,m] = wbar + Wp[:,m]
// so the analysis member m is  x_m^a = xbar^b + X'b W[:,m].
//
// The analysis driver does not solve every level: its per-column weight
// cache (column_solver.hpp) calls `letkf_weights` only for levels whose
// exact local-obs signature the column has not seen yet.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "letkf/eigen.hpp"

namespace bda::letkf {

/// Reusable per-thread scratch for letkf_weights; sized for `k` members.
template <typename T>
struct LetkfWorkspace {
  explicit LetkfWorkspace(std::size_t k)
      : a(k * k), q(k * k), pa(k * k), cd(k), wbar(k), tmp(k), e(k) {}
  std::vector<T> a, q, pa, cd, wbar, tmp;
  std::vector<T> yr;  ///< p x k scaled-perturbation scratch (grown on use)
  std::vector<T> e;   ///< eigensolver subdiagonal scratch
};

/// Build the ensemble-space precision matrix
///   A = (k-1)/rho I + Y^T diag(rinv) Y
/// (row-major k x k, into A) with the scaled perturbations
/// Yr = diag(rinv) Y formed once in `yr` and the Gram product tiled over
/// output columns, so each p x tile slab of Y stays cache-resident across
/// the full i sweep instead of being re-streamed per entry.  Determinism:
/// Yr[n,i] = Y[n,i] * rinv[n] rounds exactly like the naive triple product
/// (left-associated), and each entry keeps a single accumulator over
/// ascending n, so the blocked build equals the naive loop bitwise.
/// `yr` is left holding diag(rinv) Y for reuse by the innovation
/// projection in letkf_weights.
template <typename T>
void letkf_build_gram(std::size_t k, std::size_t p, const T* Y, const T* rinv,
                      T rho, std::vector<T>& yr, T* A) {
  yr.resize(p * k);
  for (std::size_t n = 0; n < p; ++n)
    for (std::size_t i = 0; i < k; ++i) yr[n * k + i] = Y[n * k + i] * rinv[n];
  constexpr std::size_t kColTile = 48;
  for (std::size_t jb = 0; jb < k; jb += kColTile) {
    const std::size_t je = std::min(k, jb + kColTile);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = std::max(i, jb); j < je; ++j) {
        T s = (i == j) ? T(k - 1) / rho : T(0);
        for (std::size_t n = 0; n < p; ++n) s += yr[n * k + i] * Y[n * k + j];
        A[i * k + j] = s;
        A[j * k + i] = s;
      }
    }
  }
}

/// Compute the k x k LETKF weight matrix W (column m = weights of member m,
/// mean update included).  Y is row-major p x k; rinv holds the
/// localization-weighted inverse observation variances.  rho is the
/// multiplicative covariance inflation (1 = none; the paper relies on RTPP
/// instead).  `max_iters` caps the QL sweeps of the eigensolve (sym_eigen).
/// Returns false only on eigensolver non-convergence — callers must count
/// that, not swallow it (AnalysisStats::n_eig_fail); W is then unspecified.
template <typename T>
[[nodiscard]] bool letkf_weights(std::size_t k, std::size_t p, const T* Y,
                                 const T* d, const T* rinv, T rtpp_alpha,
                                 T rho, LetkfWorkspace<T>& ws, T* W,
                                 int max_iters = 50) {
  letkf_build_gram(k, p, Y, rinv, rho, ws.yr, ws.a.data());

  // Eigendecomposition: ws.a is overwritten with the eigenvectors Q and
  // ws.tmp receives the ascending eigenvalues lambda.
  const T* evec = ws.a.data();
  T* eval = ws.tmp.data();
  if (!sym_eigen(k, ws.a.data(), eval, ws.e, max_iters)) return false;

  // cd = Y^T diag(rinv) d from the prebuilt yr = diag(rinv) Y (bitwise
  // equal to forming Y^T rinv d directly: the products associate
  // identically).
  for (std::size_t i = 0; i < k; ++i) {
    T s = T(0);
    for (std::size_t n = 0; n < p; ++n) s += ws.yr[n * k + i] * d[n];
    ws.cd[i] = s;
  }
  const T* cd = ws.cd.data();

  // Guard: A is SPD by construction; clamp tiny eigenvalues against
  // single-precision round-off.
  const T floor_ev = T(1e-6) * T(k - 1);
  for (std::size_t i = 0; i < k; ++i)
    if (eval[i] < floor_ev) eval[i] = floor_ev;

  // wbar = Q diag(1/lambda) Q^T cd.
  for (std::size_t j = 0; j < k; ++j) {
    T s = T(0);
    for (std::size_t i = 0; i < k; ++i) s += evec[i * k + j] * cd[i];
    ws.pa[j] = s / eval[j];  // pa[0..k) temporarily holds Q^T cd / lambda
  }
  for (std::size_t i = 0; i < k; ++i) {
    T s = T(0);
    for (std::size_t j = 0; j < k; ++j) s += evec[i * k + j] * ws.pa[j];
    ws.wbar[i] = s;
  }

  // W = alpha I + (1-alpha) Q diag(sqrt((k-1)/lambda)) Q^T, then add wbar
  // to every column.  ws.q holds Q scaled by sqrt((k-1)/lambda) per column.
  const T one_m_alpha = T(1) - rtpp_alpha;
  for (std::size_t j = 0; j < k; ++j) {
    const T sc = std::sqrt(T(k - 1) / eval[j]);
    for (std::size_t i = 0; i < k; ++i)
      ws.q[i * k + j] = evec[i * k + j] * sc;
  }
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t m = 0; m < k; ++m) {
      T s = T(0);
      for (std::size_t j = 0; j < k; ++j)
        s += ws.q[i * k + j] * evec[m * k + j];
      T wp = one_m_alpha * s;
      if (i == m) wp += rtpp_alpha;
      W[i * k + m] = wp + ws.wbar[i];
    }
  return true;
}

}  // namespace bda::letkf
