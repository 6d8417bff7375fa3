// Symmetric eigensolver for the LETKF.
//
// The LETKF computes, at every analysis grid point, the eigendecomposition
// of the k x k ensemble-space matrix (k - 1)I + Y^T R^-1 Y — with k = 1000
// members that is 256 x 256 x 60 decompositions of 1000 x 1000 matrices per
// 30-second cycle.  The paper replaced the standard LAPACK solver with KeDV
// (Kudo & Imamura 2019), a cache-efficient batched tridiagonalization for
// many-core CPUs.  No LAPACK is assumed here: `sym_eigen` is the classic
// Householder tridiagonalization (tred2) + implicit-shift QL (tql2), one
// matrix at a time, templated on the scalar for the precision ablation.
//
// There is one solve path.  At the ensemble sizes this code runs (k <= 64)
// a step-interleaved KeDV stand-in measured no faster than the plain
// per-matrix solve; the analysis instead saves work by not solving at all
// where a level's weights are already known (column_solver.hpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace bda::letkf {

namespace detail {

/// sqrt(a^2 + b^2) without intermediate overflow/underflow: |a| only a
/// little above 1.8e19 makes a*a overflow in single precision, and
/// subnormal inputs squared flush to zero.  Scaling by the larger magnitude
/// keeps the squared term in [1/2, 1], the classic BLAS snrm2 trick.
template <typename T>
T hypot2(T a, T b) {
  const T aa = std::abs(a);
  const T ab = std::abs(b);
  const T hi = aa > ab ? aa : ab;
  if (hi == T(0)) return T(0);
  const T lo = aa > ab ? ab : aa;
  const T r = lo / hi;
  return hi * std::sqrt(T(1) + r * r);
}

/// Householder reduction of a real symmetric matrix to tridiagonal form,
/// accumulating the orthogonal transform.  On input v holds A (row-major,
/// n x n, symmetric); on output v holds the accumulated orthogonal matrix Q
/// with A = Q T Q^T, d the diagonal of T and e the subdiagonal (e[0] = 0).
/// EISPACK tred2.
template <typename T>
void tred2(std::size_t n, T* v, T* d, T* e) {
  for (std::size_t j = 0; j < n; ++j) d[j] = v[(n - 1) * n + j];
  for (std::size_t i = n - 1; i > 0; --i) {
    const std::size_t l = i - 1;
    T h = T(0), scale = T(0);
    if (l > 0) {
      for (std::size_t k = 0; k <= l; ++k) scale += std::abs(d[k]);
      if (scale == T(0)) {
        e[i] = d[l];
        for (std::size_t j = 0; j <= l; ++j) {
          d[j] = v[l * n + j];
          v[i * n + j] = T(0);
          v[j * n + i] = T(0);
        }
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          d[k] /= scale;
          h += d[k] * d[k];
        }
        T f = d[l];
        T g = (f > T(0)) ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        d[l] = f - g;
        for (std::size_t j = 0; j <= l; ++j) e[j] = T(0);

        for (std::size_t j = 0; j <= l; ++j) {
          f = d[j];
          v[j * n + i] = f;
          g = e[j] + v[j * n + j] * f;
          for (std::size_t k = j + 1; k <= l; ++k) {
            g += v[k * n + j] * d[k];
            e[k] += v[k * n + j] * f;
          }
          e[j] = g;
        }
        f = T(0);
        for (std::size_t j = 0; j <= l; ++j) {
          e[j] /= h;
          f += e[j] * d[j];
        }
        const T hh = f / (h + h);
        for (std::size_t j = 0; j <= l; ++j) e[j] -= hh * d[j];
        for (std::size_t j = 0; j <= l; ++j) {
          f = d[j];
          g = e[j];
          for (std::size_t k = j; k <= l; ++k)
            v[k * n + j] -= (f * e[k] + g * d[k]);
          d[j] = v[l * n + j];
          v[i * n + j] = T(0);
        }
      }
    } else {
      e[i] = d[l];
      d[l] = v[l * n + l];
      v[i * n + l] = T(0);
      v[l * n + i] = T(0);
    }
    d[i] = h;
  }

  // Accumulate the transforms.
  for (std::size_t i = 0; i < n - 1; ++i) {
    v[(n - 1) * n + i] = v[i * n + i];
    v[i * n + i] = T(1);
    const std::size_t l = i + 1;
    const T h = d[l];
    if (h != T(0)) {
      for (std::size_t k = 0; k <= i; ++k) d[k] = v[k * n + l] / h;
      for (std::size_t j = 0; j <= i; ++j) {
        T g = T(0);
        for (std::size_t k = 0; k <= i; ++k) g += v[k * n + l] * v[k * n + j];
        for (std::size_t k = 0; k <= i; ++k) v[k * n + j] -= g * d[k];
      }
    }
    for (std::size_t k = 0; k <= i; ++k) v[k * n + l] = T(0);
  }
  for (std::size_t j = 0; j < n; ++j) {
    d[j] = v[(n - 1) * n + j];
    v[(n - 1) * n + j] = T(0);
  }
  v[(n - 1) * n + (n - 1)] = T(1);
  e[0] = T(0);
}

/// Implicit-shift QL iteration on the tridiagonal (d, e), rotating the
/// accumulated transform in v so its columns become the eigenvectors of the
/// original matrix.  EISPACK tql2.  Returns false if an eigenvalue fails to
/// converge within `max_iters` sweeps (effectively never for SPD LETKF
/// matrices at the default; lowering the cap is the deterministic
/// fault-injection knob for the non-convergence path).
template <typename T>
bool tql2(std::size_t n, T* v, T* d, T* e, int max_iters = 50) {
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = T(0);

  T f = T(0), tst1 = T(0);
  const T eps = std::numeric_limits<T>::epsilon();
  for (std::size_t l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::abs(d[l]) + std::abs(e[l]));
    std::size_t m = l;
    while (m < n && std::abs(e[m]) > eps * tst1) ++m;

    if (m > l) {
      int iter = 0;
      do {
        if (++iter > max_iters) return false;
        // Form the Wilkinson shift.
        T g = d[l];
        T p = (d[l + 1] - g) / (T(2) * e[l]);
        T r = hypot2(p, T(1));
        if (p < T(0)) r = -r;
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        const T dl1 = d[l + 1];
        T h = g - d[l];
        for (std::size_t i = l + 2; i < n; ++i) d[i] -= h;
        f += h;

        // Implicit QL sweep.
        p = d[m];
        T c = T(1), c2 = c, c3 = c;
        const T el1 = e[l + 1];
        T s = T(0), s2 = T(0);
        for (long li = long(m) - 1; li >= long(l); --li) {
          const std::size_t i = static_cast<std::size_t>(li);
          c3 = c2;
          c2 = c;
          s2 = s;
          g = c * e[i];
          h = c * p;
          r = hypot2(p, e[i]);
          e[i + 1] = s * r;
          s = e[i] / r;
          c = p / r;
          p = c * d[i] - s * g;
          d[i + 1] = h + s * (c * g + s * d[i]);
          for (std::size_t k = 0; k < n; ++k) {
            h = v[k * n + i + 1];
            v[k * n + i + 1] = s * v[k * n + i] + c * h;
            v[k * n + i] = c * v[k * n + i] - s * h;
          }
        }
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
      } while (std::abs(e[l]) > eps * tst1);
    }
    d[l] += f;
    e[l] = T(0);
  }

  // Sort eigenvalues (ascending) and eigenvectors.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    std::size_t k = i;
    T p = d[i];
    for (std::size_t j = i + 1; j < n; ++j)
      if (d[j] < p) {
        k = j;
        p = d[j];
      }
    if (k != i) {
      d[k] = d[i];
      d[i] = p;
      for (std::size_t j = 0; j < n; ++j) std::swap(v[j * n + i], v[j * n + k]);
    }
  }
  return true;
}

}  // namespace detail

/// Eigendecomposition of the symmetric n x n matrix a (row-major): a is
/// overwritten with the eigenvectors (column j = eigenvector of w[j]) and w
/// receives the eigenvalues in ascending order.  `e` is caller-owned
/// subdiagonal scratch (resized to n, so one vector serves every call).
/// Returns false if an eigenvalue fails to converge within `max_iters` QL
/// sweeps — effectively never for the SPD LETKF matrices at the default;
/// lowering the cap is the deterministic fault-injection knob for the
/// non-convergence accounting.  Failed solves leave a/w unspecified.
template <typename T>
[[nodiscard]] bool sym_eigen(std::size_t n, T* a, T* w, std::vector<T>& e,
                             int max_iters = 50) {
  if (n == 0) return true;
  if (n == 1) {
    // Trivial case, handled up front: the QL sweep below is a no-op for
    // n = 1, but making that explicit lets the compiler (and its
    // -Warray-bounds analysis, when it constant-folds a unit-size call)
    // see that no e[l + 1] access ever happens.
    w[0] = a[0];
    a[0] = T(1);
    return true;
  }
  e.resize(n);
  detail::tred2(n, a, w, e.data());
  return detail::tql2(n, a, w, e.data(), max_iters);
}

/// One-shot form that allocates its own scratch each call, as a
/// per-gridpoint LAPACK call would (the ablation's "standard solver").
template <typename T>
[[nodiscard]] bool sym_eigen(std::size_t n, T* a, T* w) {
  std::vector<T> e;
  return sym_eigen(n, a, w, e);
}

}  // namespace bda::letkf
