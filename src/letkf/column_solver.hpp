// Per-column LETKF weight solver with exact weight reuse.
//
// The analysis loop visits one vertical column (i, j) at a time, and
// adjacent levels of a column usually rank the same local observations —
// often with bit-identical localization weights (e.g. a single-elevation
// obs layer seen from vertically symmetric levels, or any quantized
// vertical-localization scheme).  Recomputing the O(k^3) weight solve per
// level is then pure waste.  This solver deduplicates levels by an exact
// signature — the ranked local-obs index list plus the bit pattern of the
// localized inverse variances (Y rows and innovations are functions of the
// obs index, so the pair fully determines the solve inputs) — and solves
// only on a miss: insert() runs letkf_weights into the new slot, so the
// slot's weights are valid as soon as insert() returns.
//
// Exactness contract: a cache hit requires byte equality of the signature,
// and a miss IS a letkf_weights call, so every level's weights equal a
// per-level letkf_weights call bit for bit.  Non-convergence is reported
// per slot and counted — never swallowed.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "letkf/letkf_core.hpp"

namespace bda::letkf {

namespace detail {

/// One FNV-1a step over a whole word (an id, or the bits of one rinv
/// entry).  The hash only speeds up rejection: a cache hit still requires
/// byte equality of the signature.
inline std::uint64_t fnv1a_word(std::uint64_t h, std::uint64_t word) {
  return (h ^ word) * 1099511628211ull;
}

}  // namespace detail

template <typename T>
class ColumnWeightSolver {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// `k` ensemble members, at most `max_levels` levels per column; rtpp /
  /// rho as letkf_weights.  `max_ql_iters` caps the QL iteration (the
  /// deterministic non-convergence fault knob, default matches tql2).
  /// Slots are allocated on first use, so storage follows the most distinct
  /// signatures any column has needed, not max_levels (k^2 floats per slot).
  ColumnWeightSolver(std::size_t k, std::size_t max_levels, T rtpp_alpha,
                     T rho, int max_ql_iters = 50)
      : k_(k), max_levels_(max_levels), rtpp_(rtpp_alpha), rho_(rho),
        max_ql_iters_(max_ql_iters), ws_(k) {}

  /// Start a new column: drops the weight cache (signatures are only
  /// comparable within one column's candidate set) but keeps the slots
  /// allocated so far and the lifetime counters.
  void begin_column() {
    n_unique_ = 0;
    n_levels_ = 0;
  }

  /// Probe the cache for a level's signature.  On a hit, registers the
  /// level against the existing slot and returns it — the caller can then
  /// skip gathering Y and d entirely.  Returns npos on a miss.
  std::size_t lookup(std::size_t p, const std::size_t* ids, const T* rinv) {
    assert(p > 0 && n_levels_ < max_levels_);
    const std::uint64_t h = signature_hash(p, ids, rinv);
    probe_hash_ = h;
    for (std::size_t u = 0; u < n_unique_; ++u) {
      if (sig_hash_[u] != h || sig_ids_[u].size() != p) continue;
      if (std::memcmp(sig_ids_[u].data(), ids, p * sizeof(std::size_t)) != 0)
        continue;
      if (std::memcmp(sig_rinv_[u].data(), rinv, p * sizeof(T)) != 0)
        continue;
      ++hits_;
      ++n_levels_;
      return u;
    }
    return npos;
  }

  /// Register a level whose signature missed the cache: stores the
  /// signature and solves the slot's weight matrix (letkf_weights).  Y is
  /// row-major p x k, d length p (as letkf_weights).  Must follow the
  /// missed lookup() of the same signature, whose hash it reuses (add_level
  /// does both); any other order only costs reuse, never a wrong hit.
  /// Returns the new slot; converged()/weights() are valid for it at once.
  std::size_t insert(std::size_t p, const std::size_t* ids, const T* rinv,
                     const T* Y, const T* d) {
    assert(p > 0 && n_unique_ < max_levels_);
    assert(probe_hash_ == signature_hash(p, ids, rinv));
    const std::size_t u = n_unique_++;
    if (u == sig_hash_.size()) {  // first use of this slot
      wmat_.resize((u + 1) * k_ * k_);
      ok_.push_back(0);
      sig_ids_.emplace_back();
      sig_rinv_.emplace_back();
      sig_hash_.push_back(0);
    }
    ++n_levels_;
    ++misses_;
    sig_hash_[u] = probe_hash_;
    sig_ids_[u].assign(ids, ids + p);
    sig_rinv_[u].assign(rinv, rinv + p);
    const bool conv = letkf_weights(k_, p, Y, d, rinv, rtpp_, rho_, ws_,
                                    wmat_.data() + u * k_ * k_, max_ql_iters_);
    ok_[u] = conv ? std::uint8_t(1) : std::uint8_t(0);
    if (!conv) ++fails_;
    return u;
  }

  /// Convenience wrapper: lookup, then insert on miss (Y/d are read only
  /// on the miss path).
  std::size_t add_level(std::size_t p, const std::size_t* ids, const T* rinv,
                        const T* Y, const T* d) {
    const std::size_t u = lookup(p, ids, rinv);
    return u != npos ? u : insert(p, ids, rinv, Y, d);
  }

  /// Did slot's eigensolve converge?
  [[nodiscard]] bool converged(std::size_t slot) const {
    assert(slot < n_unique_);
    return ok_[slot] != 0;
  }

  /// k x k weight matrix of a converged slot.  The pointer stays valid
  /// until the next insert(), which may reallocate the slot storage.
  const T* weights(std::size_t slot) const {
    assert(slot < n_unique_ && ok_[slot] != 0);
    return wmat_.data() + slot * k_ * k_;
  }

  std::size_t members() const { return k_; }
  std::size_t n_levels() const { return n_levels_; }   ///< this column
  std::size_t n_unique() const { return n_unique_; }   ///< this column

  // Lifetime counters (across every column this solver has seen) — the
  // driver aggregates them into AnalysisStats / util::Metrics.
  std::size_t cache_hits() const { return hits_; }
  std::size_t cache_misses() const { return misses_; }
  std::size_t eig_failures() const { return fails_; }

 private:
  static std::uint64_t signature_hash(std::size_t p, const std::size_t* ids,
                                      const T* rinv) {
    static_assert(sizeof(T) <= sizeof(std::uint64_t));
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t n = 0; n < p; ++n) h = detail::fnv1a_word(h, ids[n]);
    for (std::size_t n = 0; n < p; ++n) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &rinv[n], sizeof(T));
      h = detail::fnv1a_word(h, bits);
    }
    return h;
  }

  std::size_t k_, max_levels_;
  T rtpp_, rho_;
  int max_ql_iters_;
  LetkfWorkspace<T> ws_;
  std::vector<T> wmat_;  ///< solved weight matrices per slot
  std::vector<std::uint8_t> ok_;
  std::vector<std::vector<std::size_t>> sig_ids_;
  std::vector<std::vector<T>> sig_rinv_;
  std::vector<std::uint64_t> sig_hash_;
  std::uint64_t probe_hash_ = 0;  ///< hash of the last lookup()
  std::size_t n_unique_ = 0, n_levels_ = 0;
  std::size_t hits_ = 0, misses_ = 0, fails_ = 0;
};

}  // namespace bda::letkf
