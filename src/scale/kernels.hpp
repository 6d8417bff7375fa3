// Low-level numerical kernels shared by the dynamical core and the
// precision-ablation bench (bench_ablation_precision).  Templated on the
// scalar type so the identical code runs in float (the paper's production
// configuration) and double (the conventional baseline).
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

namespace bda::scale {

/// 3rd-order upwind interpolation of a cell value to the face between q0 and
/// qp1, given one extra cell on each side and the advecting velocity sign.
/// This is the (K = 3) member of the standard UTOPIA/Wicker-Skamarock family:
/// it equals the 4th-order centered interpolant plus a velocity-signed
/// dissipative term, which is what keeps flux-form advection stable without
/// explicit filtering.
template <typename T>
inline T upwind3(T qm1, T q0, T qp1, T qp2, T vel) {
  constexpr T sixth = T(1) / T(6);
  return vel >= T(0) ? (-qm1 + T(5) * q0 + T(2) * qp1) * sixth
                     : (T(2) * q0 + T(5) * qp1 - qp2) * sixth;
}

/// 1st-order upwind face value (used adjacent to the vertical boundaries
/// where the 3rd-order stencil does not fit).
template <typename T>
inline T upwind1(T q0, T qp1, T vel) {
  return vel >= T(0) ? q0 : qp1;
}

/// Thomas algorithm for a tridiagonal system
///   a[i] x[i-1] + b[i] x[i] + c[i] x[i+1] = d[i],  i = 0..n-1
/// with a[0] and c[n-1] ignored.  In-place on d; the coefficient arrays are
/// const — the modified upper diagonal goes to `cw` (scratch, >= n), so a
/// caller may reuse one (a, b, c) set across many right-hand sides or
/// columns.  (The pre-PR-10 signature clobbered the caller's `c`, which made
/// coefficient reuse across columns a silent-corruption hazard; see
/// docs/SCALE_KERNELS.md.)  The HEVI vertical acoustic solve calls this once
/// per column per RK stage.  Requires the system to be diagonally dominant
/// (the acoustic system is, for any time step: diagonal is 1 + positive
/// terms).
template <typename T>
inline void solve_tridiagonal(std::span<const T> a, std::span<const T> b,
                              std::span<const T> c, std::span<T> d,
                              std::span<T> cw) {
  const std::size_t n = d.size();
  assert(a.size() == n && b.size() == n && c.size() == n && cw.size() >= n);
  if (n == 0) return;
  cw[0] = c[0] / b[0];
  d[0] = d[0] / b[0];
  for (std::size_t i = 1; i < n; ++i) {
    const T m = T(1) / (b[i] - a[i] * cw[i - 1]);
    cw[i] = c[i] * m;
    d[i] = (d[i] - a[i] * d[i - 1]) * m;
  }
  for (std::size_t i = n - 1; i-- > 0;) d[i] -= cw[i] * d[i + 1];
}

/// Convenience overload with internal scratch (tests, cold paths).
template <typename T>
inline void solve_tridiagonal(std::span<const T> a, std::span<const T> b,
                              std::span<const T> c, std::span<T> d) {
  std::vector<T> cw(d.size());
  solve_tridiagonal<T>(a, b, c, d, cw);
}

/// Batched Thomas solve over `nlanes` independent columns, interleaved
/// structure-of-arrays: element i of lane l lives at [i * stride + l]
/// (stride >= nlanes).  The k-recurrence is sequential but every level's
/// work runs lane-parallel over contiguous memory, so the inner loops
/// vectorize: SIMD lanes are columns.  Per lane the arithmetic sequence is
/// identical to the scalar solve_tridiagonal, so results are bitwise-equal
/// lane by lane.
/// Coefficients are const; `cw` is caller scratch of n * stride elements.
template <typename T>
inline void solve_tridiagonal_batch(std::size_t n, std::size_t nlanes,
                                    std::size_t stride, const T* a,
                                    const T* b, const T* c, T* d, T* cw) {
  assert(nlanes <= stride);
  if (n == 0 || nlanes == 0) return;
#pragma omp simd
  for (std::size_t l = 0; l < nlanes; ++l) {
    cw[l] = c[l] / b[l];
    d[l] = d[l] / b[l];
  }
  for (std::size_t i = 1; i < n; ++i) {
    const T* ai = a + i * stride;
    const T* bi = b + i * stride;
    const T* ci = c + i * stride;
    T* di = d + i * stride;
    T* cwi = cw + i * stride;
#pragma omp simd
    for (std::size_t l = 0; l < nlanes; ++l) {
      const T m = T(1) / (bi[l] - ai[l] * cwi[l - stride]);
      cwi[l] = ci[l] * m;
      di[l] = (di[l] - ai[l] * di[l - stride]) * m;
    }
  }
  for (std::size_t i = n - 1; i-- > 0;) {
    T* di = d + i * stride;
    const T* cwi = cw + i * stride;
#pragma omp simd
    for (std::size_t l = 0; l < nlanes; ++l)
      di[l] -= cwi[l] * di[l + stride];
  }
}

/// Dense symmetric matrix-vector product y = A x (row-major, n x n).
/// Hot loop of the LETKF transform; templated for the precision ablation.
template <typename T>
inline void symv(std::size_t n, const T* a, const T* x, T* y) {
  for (std::size_t i = 0; i < n; ++i) {
    T s = T(0);
    const T* row = a + i * n;
    for (std::size_t j = 0; j < n; ++j) s += row[j] * x[j];
    y[i] = s;
  }
}

/// General matrix-matrix product C = A(m x k) * B(k x n), row-major,
/// accumulating in T.  Small-matrix use only (ensemble-space products).
template <typename T>
inline void gemm(std::size_t m, std::size_t k, std::size_t n, const T* a,
                 const T* b, T* c) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) c[i * n + j] = T(0);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t p = 0; p < k; ++p) {
      const T aip = a[i * k + p];
      const T* brow = b + p * n;
      T* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aip * brow[j];
    }
}

}  // namespace bda::scale
