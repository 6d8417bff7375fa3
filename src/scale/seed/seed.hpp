// Seed SCALE kernels: the per-point loops of dynamics, microphysics,
// turbulence and the boundary layer as they were before the SoA/SIMD
// restructuring, kept as the bitwise oracle the production kernels are
// checked against (test_scale_kernel_parity, bench_scale_kernels; contract
// in docs/SCALE_KERNELS.md).  Built as bda_scale_seed, which no production
// target links; tools/check_bda_style.py rejects any include of this
// directory from the rest of src/.
//
// Each class mirrors its production counterpart's members and public
// stepping API, and allocates the scratch it reads once in its constructor.
#pragma once

#include <memory>
#include <vector>

#include "scale/boundary_layer.hpp"
#include "scale/dynamics.hpp"
#include "scale/grid.hpp"
#include "scale/microphysics.hpp"
#include "scale/model.hpp"
#include "scale/radiation.hpp"
#include "scale/reference.hpp"
#include "scale/state.hpp"
#include "scale/surface.hpp"
#include "scale/turbulence.hpp"
#include "util/field.hpp"

namespace bda::scale::seed {

class Dynamics {
 public:
  Dynamics(const Grid& grid, const ReferenceState& ref, DynParams params);

  /// Advance the state by dt (same RK driver as scale::Dynamics::step).
  void step(State& s, real dt);

 private:
  void fill_halos(State& s) const;
  void fill_derived_halos();
  void compute_derived(const State& in);
  void compute_tendencies(const State& in, Tendencies& tend, real dt_full);
  void vertical_implicit(const State& s0, const State& in,
                         const Tendencies& tend, real dts, State& out);
  void hyperdiffusion(const State& in, Tendencies& tend, real nu4);

  const Grid& grid_;
  const ReferenceState& ref_;
  DynParams params_;
  std::vector<real> pref_;  ///< reference pressure consistent with our EOS

  RField3D ufc_, vfc_, wfc_, th_, prs_, div_, lap_;
  State stage_in_, stage_out_;
  Tendencies tend_;
};

class Microphysics {
 public:
  Microphysics(const Grid& grid, MicroParams params = {});

  void step(State& s, real dt);
  void sediment_only(State& s, real dt) { sedimentation(s, dt); }

  const RField2D& accumulated_precip() const { return accum_precip_; }
  const RField2D& last_rate() const { return last_rate_; }

 private:
  void phase_changes(State& s, real dt);
  void sedimentation(State& s, real dt);

  const Grid& grid_;
  MicroParams params_;
  RField2D accum_precip_;
  RField2D last_rate_;
};

class Turbulence {
 public:
  Turbulence(const Grid& grid, TurbParams params = {},
             LateralBc bc = LateralBc::kClamp);

  void step(State& s, real dt);
  const RField3D& k_m() const { return km_; }

 private:
  void compute_viscosity(const State& s);
  void fill_state_halos(State& s) const;
  void fill_km_halo();

  const Grid& grid_;
  TurbParams params_;
  LateralBc bc_;
  RField3D km_;
};

/// Marches the TKE field of a production scale::BoundaryLayer, so the
/// production Surface keeps feeding that object's tke() as it does in
/// scale::step_member.  `tke_owner` must outlive this object.
class BoundaryLayer {
 public:
  BoundaryLayer(const Grid& grid, PblParams params,
                scale::BoundaryLayer& tke_owner);

  /// Same wind snapshot as scale::BoundaryLayer::step, then the seed
  /// per-column mixing.
  void step(State& s, real dt);

 private:
  // `uv` holds each column's pre-step cell-centre u then v (nz each), at
  // offset (i * ny + j) * 2 * nz.
  void mix_columns(State& s, real dt, const std::vector<real>& uv);

  const Grid& grid_;
  PblParams params_;
  RField3D& tke_;
};

/// Replays scale::step_member's order with the seed dynamics, microphysics,
/// turbulence and boundary layer and the production Surface and Radiation.
/// Members share the scratch-only engines and own their microphysics and
/// TKE, as in scale::Ensemble; one member replays scale::Model.  No lateral
/// boundary driver: the seed kernels are checked on periodic and clamped
/// domains only.
class Runner {
 public:
  Runner(const Grid& grid, const Sounding& sounding, ModelConfig cfg,
         int n_members = 1);
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// One step of every member.
  void step();
  /// Integrate for `duration` seconds (rounded to whole steps).
  void advance(real duration);

  State& member(int m) { return members_[static_cast<std::size_t>(m)]; }
  const RField2D& precip(int m) const {
    return micro_[static_cast<std::size_t>(m)]->accumulated_precip();
  }

 private:
  Grid grid_;
  ReferenceState ref_;
  ModelConfig cfg_;
  double time_ = 0.0;
  long step_count_ = 0;

  Dynamics dyn_;
  Turbulence turb_;
  Surface sfc_;
  Radiation rad_;
  std::vector<State> members_;
  std::vector<std::unique_ptr<Microphysics>> micro_;
  std::vector<std::unique_ptr<scale::BoundaryLayer>> tke_;
  std::vector<std::unique_ptr<BoundaryLayer>> pbl_;
};

}  // namespace bda::scale::seed
