// Dense 2-D / 3-D field containers with optional horizontal halo.
//
// Memory layout is column-major in the vertical: for Field3D the k (vertical)
// index is fastest-varying, so an entire model column is contiguous.  This is
// the layout SCALE-RM uses and it makes the vertically implicit (tridiagonal)
// solves and column physics cache-friendly; horizontal stencils walk with a
// fixed stride of nz.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace bda {

/// 3-D field (nx, ny, nz) with a horizontal halo of width `halo` on each
/// side in x and y.  Valid indices: i,j in [-halo, n+halo), k in [0, nz).
template <typename T>
class Field3D {
 public:
  Field3D() = default;
  Field3D(idx nx, idx ny, idx nz, idx halo = 0)
      : nx_(nx), ny_(ny), nz_(nz), halo_(halo),
        sx_((ny + 2 * halo) * nz), sy_(nz),
        data_((nx + 2 * halo) * (ny + 2 * halo) * nz, T(0)) {
    assert(nx > 0 && ny > 0 && nz > 0 && halo >= 0);
  }

  idx nx() const { return nx_; }
  idx ny() const { return ny_; }
  idx nz() const { return nz_; }
  idx halo() const { return halo_; }
  /// Total allocated elements including halo.
  std::size_t size() const { return data_.size(); }
  /// Interior elements only.
  std::size_t interior_size() const {
    return static_cast<std::size_t>(nx_ * ny_ * nz_);
  }

  T& operator()(idx i, idx j, idx k) { return data_[offset(i, j, k)]; }
  const T& operator()(idx i, idx j, idx k) const {
    return data_[offset(i, j, k)];
  }

  /// Contiguous column (k = 0..nz) at horizontal location (i, j).
  std::span<T> column(idx i, idx j) {
    return {data_.data() + offset(i, j, 0), static_cast<std::size_t>(nz_)};
  }
  std::span<const T> column(idx i, idx j) const {
    return {data_.data() + offset(i, j, 0), static_cast<std::size_t>(nz_)};
  }

  /// Raw pointer to the start of column (i, j); &p[k] == &(*this)(i, j, k).
  /// The hot kernels use this to walk columns without re-deriving the
  /// offset per element (docs/SCALE_KERNELS.md).
  T* column_ptr(idx i, idx j) { return data_.data() + offset(i, j, 0); }
  const T* column_ptr(idx i, idx j) const {
    return data_.data() + offset(i, j, 0);
  }

  std::span<T> raw() { return data_; }
  std::span<const T> raw() const { return data_; }

  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

  /// Copy interior + halo from another field of identical shape.
  void copy_from(const Field3D& o) {
    assert(same_shape(o));
    data_ = o.data_;
  }

  bool same_shape(const Field3D& o) const {
    return nx_ == o.nx_ && ny_ == o.ny_ && nz_ == o.nz_ && halo_ == o.halo_;
  }

  /// Periodic halo exchange in x and y (single process).  The distributed
  /// path goes through bda::hpc; this serves serial runs and tests.
  void fill_halo_periodic() {
    const idx h = halo_;
    if (h == 0) return;
    for (idx i = -h; i < nx_ + h; ++i) {
      const idx si = (i % nx_ + nx_) % nx_;
      for (idx j = -h; j < ny_ + h; ++j) {
        if (i >= 0 && i < nx_ && j >= 0 && j < ny_) continue;
        const idx sj = (j % ny_ + ny_) % ny_;
        auto dst = column(i, j);
        auto src = column(si, sj);
        std::copy(src.begin(), src.end(), dst.begin());
      }
    }
  }

  /// Zero-gradient (Neumann) halo fill: halo columns copy the nearest
  /// interior column.  Used by the regional model's lateral boundaries
  /// before the relaxation zone is applied.
  void fill_halo_clamp() {
    const idx h = halo_;
    if (h == 0) return;
    for (idx i = -h; i < nx_ + h; ++i) {
      const idx si = std::clamp<idx>(i, 0, nx_ - 1);
      for (idx j = -h; j < ny_ + h; ++j) {
        if (i >= 0 && i < nx_ && j >= 0 && j < ny_) continue;
        const idx sj = std::clamp<idx>(j, 0, ny_ - 1);
        auto dst = column(i, j);
        auto src = column(si, sj);
        std::copy(src.begin(), src.end(), dst.begin());
      }
    }
  }

  /// Sum over interior points (accumulated in double for reproducibility of
  /// the conservation property tests even when T = float).
  double interior_sum() const {
    double s = 0.0;
    for (idx i = 0; i < nx_; ++i)
      for (idx j = 0; j < ny_; ++j)
        for (idx k = 0; k < nz_; ++k) s += double((*this)(i, j, k));
    return s;
  }

  T interior_max() const {
    T m = (*this)(0, 0, 0);
    for (idx i = 0; i < nx_; ++i)
      for (idx j = 0; j < ny_; ++j)
        for (idx k = 0; k < nz_; ++k) m = std::max(m, (*this)(i, j, k));
    return m;
  }

  T interior_min() const {
    T m = (*this)(0, 0, 0);
    for (idx i = 0; i < nx_; ++i)
      for (idx j = 0; j < ny_; ++j)
        for (idx k = 0; k < nz_; ++k) m = std::min(m, (*this)(i, j, k));
    return m;
  }

 private:
  std::size_t offset(idx i, idx j, idx k) const {
    assert(i >= -halo_ && i < nx_ + halo_);
    assert(j >= -halo_ && j < ny_ + halo_);
    assert(k >= 0 && k < nz_);
    return static_cast<std::size_t>((i + halo_) * sx_ + (j + halo_) * sy_ + k);
  }

  idx nx_ = 0, ny_ = 0, nz_ = 0, halo_ = 0;
  idx sx_ = 0, sy_ = 0;
  std::vector<T> data_;
};

/// 2-D horizontal field (nx, ny) with halo; j fastest.
template <typename T>
class Field2D {
 public:
  Field2D() = default;
  Field2D(idx nx, idx ny, idx halo = 0)
      : nx_(nx), ny_(ny), halo_(halo), sx_(ny + 2 * halo),
        data_((nx + 2 * halo) * (ny + 2 * halo), T(0)) {}

  idx nx() const { return nx_; }
  idx ny() const { return ny_; }
  idx halo() const { return halo_; }
  std::size_t size() const { return data_.size(); }

  T& operator()(idx i, idx j) { return data_[offset(i, j)]; }
  const T& operator()(idx i, idx j) const { return data_[offset(i, j)]; }

  std::span<T> raw() { return data_; }
  std::span<const T> raw() const { return data_; }
  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

  double interior_sum() const {
    double s = 0.0;
    for (idx i = 0; i < nx_; ++i)
      for (idx j = 0; j < ny_; ++j) s += double((*this)(i, j));
    return s;
  }

  T interior_max() const {
    T m = (*this)(0, 0);
    for (idx i = 0; i < nx_; ++i)
      for (idx j = 0; j < ny_; ++j) m = std::max(m, (*this)(i, j));
    return m;
  }

 private:
  std::size_t offset(idx i, idx j) const {
    assert(i >= -halo_ && i < nx_ + halo_);
    assert(j >= -halo_ && j < ny_ + halo_);
    return static_cast<std::size_t>((i + halo_) * sx_ + (j + halo_));
  }

  idx nx_ = 0, ny_ = 0, halo_ = 0;
  idx sx_ = 0;
  std::vector<T> data_;
};

using RField3D = Field3D<real>;
using RField2D = Field2D<real>;

/// Fixed-shape pairwise (cascade) sum.  The reduction tree depends only on
/// `n`, never on thread count or iteration order, so reductions built from
/// per-column partials stay bitwise reproducible across OpenMP thread counts
/// (the determinism contract bda_analyze enforces for State::total_mass).
inline double pairwise_sum(std::span<const double> v) {
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  if (n <= 8) {
    double s = v[0];
    for (std::size_t i = 1; i < n; ++i) s += v[i];
    return s;
  }
  const std::size_t half = n / 2;
  return pairwise_sum(v.subspan(0, half)) + pairwise_sum(v.subspan(half));
}

}  // namespace bda
