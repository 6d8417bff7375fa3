// Lateral boundary forcing and one-way nesting.
//
// Reproduces the paper's Fig 3 data flow: JMA mesoscale forecasts (3-hourly,
// 5-km) drive 1000-member outer-domain (1.5-km) forecasts, which provide the
// lateral boundaries of the inner 500-m domain.  Here:
//   * DaviesRelaxation nudges a rim of cells toward a boundary state
//     (classic regional-NWP lateral coupling),
//   * SyntheticMesoscaleDriver stands in for the JMA feed (slowly varying
//     large-scale wind/moisture; substitution recorded in DESIGN.md),
//   * nest_interpolate downscales an outer-domain state onto an inner grid,
//     implementing the one-way nesting of outer -> inner.
#pragma once

#include <memory>

#include "scale/grid.hpp"
#include "scale/reference.hpp"
#include "scale/state.hpp"

namespace bda::scale {

/// Provides the boundary target state at a given simulation time.
class BoundaryDriver {
 public:
  virtual ~BoundaryDriver() = default;
  /// Fill `bc` with the full-domain target the rim is relaxed toward.
  virtual void fill(double time_s, State& bc) const = 0;
};

/// Fixed environment: reference atmosphere plus a constant mean wind.
class SteadyDriver final : public BoundaryDriver {
 public:
  SteadyDriver(const Grid& grid, const ReferenceState& ref, real u_mean,
               real v_mean);
  void fill(double time_s, State& bc) const override;

 private:
  const Grid& grid_;
  const ReferenceState& ref_;
  real u_mean_, v_mean_;
};

/// Stand-in for the JMA mesoscale feed: reference atmosphere with slowly
/// rotating mean wind and a low-level moisture surge cycle, refreshed with
/// the operational 3-hour cadence (values held piecewise-constant between
/// refreshes, as file-based boundary data would be).
class SyntheticMesoscaleDriver final : public BoundaryDriver {
 public:
  SyntheticMesoscaleDriver(const Grid& grid, const ReferenceState& ref,
                           real u_base, real v_base,
                           double refresh_s = 10800.0);
  void fill(double time_s, State& bc) const override;

 private:
  const Grid& grid_;
  const ReferenceState& ref_;
  real u_base_, v_base_;
  double refresh_s_;
};

/// Serves a caller-owned boundary state (refreshed externally, e.g. by the
/// outer-domain nesting chain each time the coarse forecast advances).
class StateDriver final : public BoundaryDriver {
 public:
  explicit StateDriver(const State* state) : state_(state) {}
  void fill(double /*time_s*/, State& bc) const override { bc = *state_; }

 private:
  const State* state_;
};

/// Davies (1976) relaxation: blend the outer `width` cells toward `bc` with
/// a quadratic ramp; the outermost cell relaxes with time scale `tau`.
void apply_davies(State& s, const State& bc, idx width, real dt, real tau);

/// One-way nesting: bilinear horizontal interpolation of a coarse-domain
/// state onto a fine grid (vertical levels must match).  The fine domain is
/// assumed centered inside the coarse one, as in Fig 3a.
void nest_interpolate(const State& coarse, const Grid& coarse_grid,
                      State& fine, const Grid& fine_grid);

}  // namespace bda::scale
