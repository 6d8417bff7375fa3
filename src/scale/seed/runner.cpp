// Seed runner: scale::step_member's order with the seed kernels.
#include <cmath>

#include "scale/seed/seed.hpp"

namespace bda::scale::seed {

Runner::Runner(const Grid& grid, const Sounding& sounding, ModelConfig cfg,
               int n_members)
    : grid_(grid), ref_(ReferenceState::build(grid_, sounding)), cfg_(cfg),
      dyn_(grid_, ref_, cfg.dyn), turb_(grid_, cfg.turb, cfg.dyn.lateral_bc),
      sfc_(grid_, cfg.sfc), rad_(grid_, cfg.rad) {
  members_.reserve(static_cast<std::size_t>(n_members));
  for (int m = 0; m < n_members; ++m) {
    members_.emplace_back(grid_);
    members_.back().init_from_reference(grid_, ref_);
    members_.back().fill_halos_periodic();
    micro_.push_back(std::make_unique<Microphysics>(grid_, cfg.micro));
    tke_.push_back(std::make_unique<scale::BoundaryLayer>(grid_, cfg.pbl));
    pbl_.push_back(
        std::make_unique<BoundaryLayer>(grid_, cfg.pbl, *tke_.back()));
  }
}

void Runner::step() {
  const bool full_physics = (step_count_ % cfg_.physics_every) == 0;
  const real pdt = cfg_.dt * real(cfg_.physics_every);
  for (std::size_t m = 0; m < members_.size(); ++m) {
    State& s = members_[m];
    dyn_.step(s, cfg_.dt);
    if (cfg_.enable_micro) micro_[m]->step(s, cfg_.dt);
    if (full_physics) {
      if (cfg_.enable_turb) turb_.step(s, pdt);
      if (cfg_.enable_pbl) pbl_[m]->step(s, pdt);
      if (cfg_.enable_sfc)
        sfc_.step(s, pdt, cfg_.enable_pbl ? tke_[m].get() : nullptr,
                  real(std::fmod(time_, 86400.0)));
      if (cfg_.enable_rad) rad_.step(s, pdt);
    }
  }
  time_ += double(cfg_.dt);
  ++step_count_;
}

void Runner::advance(real duration) {
  const long n = static_cast<long>(std::floor(duration / cfg_.dt + 0.5f));
  for (long s = 0; s < n; ++s) step();
}

}  // namespace bda::scale::seed
