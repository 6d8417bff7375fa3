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
  std::vector<T> e;  ///< eigensolver subdiagonal scratch
};

namespace detail {

/// Rank-1 row updates of obs [n0, n0 + NB) into rows [ib, ie) x columns
/// [jb, je) of the row-major k x k matrix A: A[i,j] += (Y[n,i] rinv[n])
/// Y[n,j] for each n in ascending order.  The NB obs share one load and
/// store of A; the j sweep is contiguous in A and Y and vectorizes.
template <std::size_t NB, typename T>
void gram_rank_update(std::size_t k, std::size_t n0, const T* Y,
                      const T* rinv, std::size_t ib, std::size_t ie,
                      std::size_t jb, std::size_t je, T* A) {
  const T* yn = Y + n0 * k;
  for (std::size_t i = ib; i < ie; ++i) {
    T yri[NB];
    for (std::size_t b = 0; b < NB; ++b) yri[b] = yn[b * k + i] * rinv[n0 + b];
    T* ai = A + i * k;
#pragma omp simd
    for (std::size_t j = jb; j < je; ++j) {
      T a = ai[j];
      for (std::size_t b = 0; b < NB; ++b) a += yri[b] * yn[b * k + j];
      ai[j] = a;
    }
  }
}

}  // namespace detail

/// Build the ensemble-space precision matrix
///   A = (k-1)/rho I + Y^T diag(rinv) Y
/// (row-major k x k, into A) as rank-1 row updates in ascending obs index:
/// obs n adds (Y[n,i] rinv[n]) Y[n,:] to row i.  A is built in
/// kGramTile x kGramTile blocks (16 KB of floats), so a block stays in L1
/// across the whole obs sweep at k = 1000; blocks strictly below the
/// diagonal are skipped, diagonal blocks are computed in full, and the lower
/// triangle is then overwritten from the upper one.  Determinism: every
/// entry keeps a single accumulator summed over ascending n, and
/// Y[n,i] rinv[n] is formed before the product with Y[n,j], so A equals the
/// naive left-associated triple product bitwise.  The lower triangle must
/// be a copy: (Y[n,j] rinv[n]) Y[n,i] does not round like
/// (Y[n,i] rinv[n]) Y[n,j].
template <typename T>
void letkf_build_gram(std::size_t k, std::size_t p, const T* Y, const T* rinv,
                      T rho, T* A) {
  constexpr std::size_t kGramTile = 64;
  constexpr std::size_t kObsBlock = 4;
  const T diag = T(k - 1) / rho;
  for (std::size_t ib = 0; ib < k; ib += kGramTile) {
    const std::size_t ie = std::min(k, ib + kGramTile);
    for (std::size_t jb = ib; jb < k; jb += kGramTile) {
      const std::size_t je = std::min(k, jb + kGramTile);
      for (std::size_t i = ib; i < ie; ++i)
        for (std::size_t j = jb; j < je; ++j)
          A[i * k + j] = (i == j) ? diag : T(0);
      const std::size_t p_blocked = p - p % kObsBlock;
      for (std::size_t n = 0; n < p_blocked; n += kObsBlock)
        detail::gram_rank_update<kObsBlock>(k, n, Y, rinv, ib, ie, jb, je, A);
      for (std::size_t n = p_blocked; n < p; ++n)
        detail::gram_rank_update<1>(k, n, Y, rinv, ib, ie, jb, je, A);
    }
  }
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = i + 1; j < k; ++j) A[j * k + i] = A[i * k + j];
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
  letkf_build_gram(k, p, Y, rinv, rho, ws.a.data());

  // Eigendecomposition: ws.a is overwritten with the eigenvectors Q and
  // ws.tmp receives the ascending eigenvalues lambda.
  const T* evec = ws.a.data();
  T* eval = ws.tmp.data();
  if (!sym_eigen(k, ws.a.data(), eval, ws.e, max_iters)) return false;

  // cd = Y^T diag(rinv) d as rank-1 updates in ascending n, each entry
  // summing (Y[n,i] rinv[n]) d[n] like the naive loop (bitwise equal).
  T* cd = ws.cd.data();
  std::fill_n(cd, k, T(0));
  for (std::size_t n = 0; n < p; ++n) {
    const T* yn = Y + n * k;
    const T r = rinv[n], dn = d[n];
#pragma omp simd
    for (std::size_t i = 0; i < k; ++i) cd[i] += (yn[i] * r) * dn;
  }

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
