// Single-trajectory model: dynamics plus the full physics suite behind one
// `step()` call.  This is the deterministic building block; ensembles use
// scale::Ensemble, which shares the dynamics scratch between members.
#pragma once

#include <memory>

#include "scale/boundary.hpp"
#include "scale/boundary_layer.hpp"
#include "scale/dynamics.hpp"
#include "scale/grid.hpp"
#include "scale/microphysics.hpp"
#include "scale/radiation.hpp"
#include "scale/reference.hpp"
#include "scale/state.hpp"
#include "scale/surface.hpp"
#include "scale/turbulence.hpp"

namespace bda::scale {

struct ModelConfig {
  real dt = 0.4f;  ///< dynamics time step [s] (Table 3 value)
  DynParams dyn;
  MicroParams micro;
  TurbParams turb;
  PblParams pbl;
  SurfaceParams sfc;
  RadParams rad;
  bool enable_micro = true;
  bool enable_turb = true;
  bool enable_pbl = true;
  bool enable_sfc = true;
  bool enable_rad = true;
  /// Physics are sub-cycled: called every `physics_every` dynamics steps
  /// (microphysics always runs every step; it controls precipitation).
  int physics_every = 5;
};

/// The engines that advance one member.  `micro` and `pbl` hold the
/// member's own trajectory state (accumulated precipitation, TKE); the
/// others hold scratch only and may be shared between members.
struct MemberEngines {
  Dynamics& dyn;
  Microphysics& micro;
  Turbulence& turb;
  BoundaryLayer& pbl;
  Surface& sfc;
  Radiation& rad;
};

/// One step (cfg.dt) of one member in the operator-split order Model and
/// Ensemble both run: dynamics, microphysics, then on every
/// `physics_every`-th step (counted by `step_count`) turbulence, boundary
/// layer, surface (local time `t` modulo one day) and radiation over
/// physics_every * dt, then Davies relaxation of a `rim_width`-cell rim
/// toward `rim_target` when it is non-null.  Disabled modules are skipped.
void step_member(const ModelConfig& cfg, long step_count, double t, State& s,
                 const MemberEngines& eng, const State* rim_target,
                 idx rim_width, real rim_tau);

class Model {
 public:
  Model(const Grid& grid, const Sounding& sounding, ModelConfig cfg = {});
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  /// One dynamics step (cfg.dt) plus operator-split physics.
  void step();
  /// Integrate for `duration` seconds (rounded down to whole steps).
  void advance(real duration);

  State& state() { return state_; }
  const State& state() const { return state_; }
  const Grid& grid() const { return grid_; }
  const ReferenceState& reference() const { return ref_; }
  const ModelConfig& config() const { return cfg_; }
  double time() const { return time_; }
  void set_time(double t) { time_ = t; }
  Microphysics& microphysics() { return micro_; }

  /// Attach a lateral boundary driver (regional mode).  The model relaxes a
  /// `width`-cell rim toward the driver state with time scale `tau` after
  /// every step.  Pass nullptr to detach (periodic mode).
  void set_boundary(const BoundaryDriver* driver, idx width = 5,
                    real tau = 10.0f);

 private:
  Grid grid_;
  ReferenceState ref_;
  ModelConfig cfg_;
  State state_;
  Dynamics dyn_;
  Microphysics micro_;
  Turbulence turb_;
  BoundaryLayer pbl_;
  Surface sfc_;
  Radiation rad_;
  double time_ = 0.0;
  long step_count_ = 0;

  const BoundaryDriver* bdy_driver_ = nullptr;
  idx bdy_width_ = 5;
  real bdy_tau_ = 10.0f;
  std::unique_ptr<State> bdy_state_;
};

}  // namespace bda::scale
