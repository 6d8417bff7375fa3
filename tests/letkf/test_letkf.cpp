#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>

#include "letkf/letkf.hpp"

namespace bda::letkf {
namespace {

using scale::Grid;

Grid lgrid() { return Grid(16, 16, 8, 500.0f, 8000.0f); }

scale::ModelConfig light_config() {
  scale::ModelConfig cfg;
  cfg.dt = 0.5f;
  cfg.enable_turb = cfg.enable_pbl = cfg.enable_sfc = cfg.enable_rad = false;
  return cfg;
}

LetkfConfig fast_letkf() {
  LetkfConfig cfg;
  cfg.hloc = 1500.0f;
  cfg.vloc = 1500.0f;
  cfg.rtpp_alpha = 0.5f;
  cfg.z_min = 0.0f;
  cfg.z_max = 8000.0f;
  return cfg;
}

struct Fixture {
  Grid grid = lgrid();
  scale::Ensemble ens{grid, scale::convective_sounding(), light_config(), 12};
  ObsOperator op{grid, 4000.0f, 4000.0f, 50.0f};
  Rng rng{77};
  Fixture() {
    scale::PerturbationSpec spec;
    spec.theta_amp = 0.5f;
    spec.qv_frac = 0.05f;
    spec.zmax = 8000.0f;
    ens.perturb(spec, rng);
  }
};

TEST(Letkf, NoObservationsLeavesEnsembleUntouched) {
  Fixture f;
  const real before = f.ens.member(3).rhot(8, 8, 3);
  Letkf letkf(f.grid, fast_letkf());
  const auto stats = letkf.analyze(f.ens, {}, f.op);
  EXPECT_EQ(stats.n_obs_in, 0u);
  EXPECT_EQ(stats.n_grid_updated, 0u);
  EXPECT_EQ(f.ens.member(3).rhot(8, 8, 3), before);
}

TEST(Letkf, SingleObsUpdatesNearbyNotFar) {
  Fixture f;
  // Doppler obs near the center, value far from the background (0 wind).
  ObsVector obs;
  obs.push_back({ObsType::kDopplerVelocity, 5500.0f, 4000.0f, 1500.0f, 8.0f,
                 3.0f});
  Letkf letkf(f.grid, fast_letkf());
  const real far_before = f.ens.member(0).momx(1, 14, 2);
  const auto stats = letkf.analyze(f.ens, obs, f.op);
  EXPECT_GT(stats.n_grid_updated, 0u);
  // Far corner (> 2*hloc away horizontally) untouched.
  EXPECT_EQ(f.ens.member(0).momx(1, 14, 2), far_before);
}

TEST(Letkf, AnalysisMovesEnsembleMeanTowardObservation) {
  Fixture f;
  // Observe positive radial wind east of the radar at low elevation (beam
  // nearly horizontal, so H projects mostly onto u).  The background wind
  // is near zero with O(0.3 m/s) ensemble spread; the update direction and
  // a meaningful fraction of the innovation must follow.
  ObsVector obs;
  for (real x : {5200.0f, 5700.0f, 6200.0f})
    obs.push_back({ObsType::kDopplerVelocity, x, 4000.0f, 500.0f, 6.0f,
                   3.0f});
  Letkf letkf(f.grid, fast_letkf());

  auto mean_u_near = [&] {
    double s = 0;
    for (int m = 0; m < f.ens.size(); ++m)
      s += double(f.ens.member(m).u(11, 8, 0));  // xc(11) = 5750, zc(0) = 500
    return s / f.ens.size();
  };
  const double before = mean_u_near();
  letkf.analyze(f.ens, obs, f.op);
  const double after = mean_u_near();
  EXPECT_GT(after, before + 0.05);
}

TEST(Letkf, GrossErrorCheckRejectsOutliers) {
  Fixture f;
  ObsVector obs;
  // Doppler innovation of 50 m/s >> 15 m/s threshold.
  obs.push_back({ObsType::kDopplerVelocity, 5000.0f, 4000.0f, 1500.0f, 50.0f,
                 3.0f});
  // Reasonable obs for contrast.
  obs.push_back({ObsType::kDopplerVelocity, 5000.0f, 5000.0f, 1500.0f, 5.0f,
                 3.0f});
  Letkf letkf(f.grid, fast_letkf());
  const auto stats = letkf.analyze(f.ens, obs, f.op);
  EXPECT_EQ(stats.n_obs_in, 2u);
  EXPECT_EQ(stats.n_obs_qc, 1u);
}

TEST(Letkf, ClearAirReportsExemptFromGrossCheck) {
  Fixture f;
  // Spurious heavy rain in every member -> H(x) ~ 45 dBZ; a clear-air
  // report (-20 dBZ) has a ~65 dBZ innovation.  It must survive QC (it IS
  // the signal) while an equally large *rainy* outlier must not.
  for (int m = 0; m < f.ens.size(); ++m)
    f.ens.member(m).rhoq[scale::QR](8, 8, 1) =
        f.ens.member(m).dens(8, 8, 1) * real(2e-3 + 1e-4 * m);
  ObsVector obs;
  obs.push_back({ObsType::kReflectivity, 4250.0f, 4250.0f, 1500.0f, -20.0f,
                 5.0f});  // clear-air: exempt
  obs.push_back({ObsType::kReflectivity, 4250.0f, 4750.0f, 1500.0f, 90.0f,
                 5.0f});  // absurd rain: rejected
  Letkf letkf(f.grid, fast_letkf());
  const real qr_before = f.ens.member(0).rhoq[scale::QR](8, 8, 1);
  const auto stats = letkf.analyze(f.ens, obs, f.op);
  EXPECT_EQ(stats.n_obs_qc, 1u);  // only the 90-dBZ outlier
  // The clear-air report pulled the spurious rain down.
  EXPECT_LT(f.ens.member(0).rhoq[scale::QR](8, 8, 1), qr_before);
}

TEST(Letkf, HeightRangeRestrictsAnalysis) {
  Fixture f;
  LetkfConfig cfg = fast_letkf();
  cfg.z_min = 2000.0f;  // exclude the lowest two levels (zc = 500, 1500)
  cfg.z_max = 5000.0f;
  ObsVector obs;
  obs.push_back({ObsType::kDopplerVelocity, 4000.0f, 4000.0f, 3000.0f, 7.0f,
                 3.0f});
  Letkf letkf(f.grid, cfg);
  const real low_before = f.ens.member(2).momx(8, 8, 0);
  const real high_before = f.ens.member(2).momx(8, 8, 7);
  letkf.analyze(f.ens, obs, f.op);
  EXPECT_EQ(f.ens.member(2).momx(8, 8, 0), low_before);
  EXPECT_EQ(f.ens.member(2).momx(8, 8, 7), high_before);
}

TEST(Letkf, HydrometeorsStayNonNegative) {
  Fixture f;
  // Reflectivity obs much lower than a rainy background: the update pulls
  // hydrometeors down, clipping must keep them >= 0.
  for (int m = 0; m < f.ens.size(); ++m)
    f.ens.member(m).rhoq[scale::QR](10, 8, 2) =
        f.ens.member(m).dens(10, 8, 2) * real(1e-3 + 1e-4 * m);
  ObsVector obs;
  obs.push_back({ObsType::kReflectivity, 5250.0f, 4250.0f, 1500.0f, 22.0f,
                 5.0f});
  Letkf letkf(f.grid, fast_letkf());
  letkf.analyze(f.ens, obs, f.op);
  for (int m = 0; m < f.ens.size(); ++m)
    for (int t = 0; t < scale::kNumTracers; ++t)
      EXPECT_GE(f.ens.member(m).rhoq[t](10, 8, 2), 0.0f) << "m=" << m;
}

TEST(Letkf, MaxObsCapLimitsLocalObs) {
  Fixture f;
  LetkfConfig cfg = fast_letkf();
  cfg.max_obs_per_grid = 5;
  ObsVector obs;
  // 30 observations in a tight cluster.
  for (int n = 0; n < 30; ++n)
    obs.push_back({ObsType::kDopplerVelocity, 4000.0f + real(n % 6) * 100.0f,
                   4000.0f + real(n / 6) * 100.0f, 1500.0f, 5.0f, 3.0f});
  Letkf letkf(f.grid, cfg);
  const auto stats = letkf.analyze(f.ens, obs, f.op);
  EXPECT_GT(stats.n_grid_updated, 0u);
  EXPECT_LE(stats.mean_local_obs, 5.0 + 1e-9);
}

TEST(Letkf, MomentumUpdateCanBeDisabled) {
  Fixture f;
  LetkfConfig cfg = fast_letkf();
  cfg.update_momentum = false;
  // Give the ensemble some rain spread so reflectivity perturbations
  // exist; the ensemble-mean equivalent is ~47 dBZ, so observe 45 dBZ
  // (inside the 10-dBZ gross-error gate).
  ObsVector obs;
  obs.push_back({ObsType::kReflectivity, 4250.0f, 4250.0f, 1500.0f, 45.0f,
                 5.0f});
  for (int m = 0; m < f.ens.size(); ++m)
    f.ens.member(m).rhoq[scale::QR](8, 8, 1) =
        f.ens.member(m).dens(8, 8, 1) * real(5e-4 * (m + 1));
  Letkf letkf(f.grid, cfg);
  const real u_before = f.ens.member(1).momx(8, 8, 1);
  letkf.analyze(f.ens, obs, f.op);
  EXPECT_EQ(f.ens.member(1).momx(8, 8, 1), u_before);
  // But hydrometeors did change.
  EXPECT_NE(f.ens.member(1).rhoq[scale::QR](8, 8, 1),
            f.ens.member(1).dens(8, 8, 1) * real(5e-4 * 2));
}

TEST(Letkf, EigensolverFailureIsCountedAndSkipsUpdate) {
  // Regression: non-convergence in letkf_weights used to be silently
  // swallowed (the level was skipped with no trace in AnalysisStats).
  // eig_max_iters = 0 is the deterministic fault knob: any gridpoint whose
  // ensemble-space matrix needs QL sweeps fails to converge.
  Fixture f;
  LetkfConfig cfg = fast_letkf();
  cfg.eig_max_iters = 0;
  ObsVector obs;
  for (real x : {4200.0f, 4700.0f, 5200.0f})
    obs.push_back({ObsType::kDopplerVelocity, x, 4000.0f, 1500.0f, 6.0f,
                   3.0f});
  Letkf letkf(f.grid, cfg);
  util::Metrics metrics;
  letkf.set_metrics(&metrics);
  const real before = f.ens.member(0).momx(8, 8, 1);
  const auto stats = letkf.analyze(f.ens, obs, f.op);
  EXPECT_GT(stats.n_eig_fail, 0u);
  EXPECT_EQ(metrics.counter("letkf.eig_fail"), stats.n_eig_fail);
  // Failed levels leave the background untouched rather than applying a
  // garbage weight matrix.
  if (stats.n_grid_updated == 0) {
    EXPECT_EQ(f.ens.member(0).momx(8, 8, 1), before);
  }
}

TEST(Letkf, BatchAndReuseStatsArePopulated) {
  Fixture f;
  ObsVector obs;
  for (real x : {4200.0f, 4700.0f, 5200.0f})
    obs.push_back({ObsType::kDopplerVelocity, x, 4000.0f, 1500.0f, 6.0f,
                   3.0f});
  Letkf letkf(f.grid, fast_letkf());
  util::Metrics metrics;
  letkf.set_metrics(&metrics);
  const auto stats = letkf.analyze(f.ens, obs, f.op);
  ASSERT_GT(stats.n_grid_updated, 0u);
  EXPECT_EQ(stats.n_eig_fail, 0u);
  // Every analyzed level either solved a fresh weight matrix or reused a
  // cached one.
  EXPECT_GT(stats.n_weight_solved, 0u);
  EXPECT_EQ(metrics.counter("letkf.weight_cache_miss"),
            stats.n_weight_solved);
  EXPECT_EQ(metrics.counter("letkf.weight_cache_hit"),
            stats.n_weight_reuse);
}

TEST(Letkf, StatsReportInnovationMagnitude) {
  Fixture f;
  ObsVector obs;
  obs.push_back({ObsType::kDopplerVelocity, 4500.0f, 4000.0f, 1500.0f, 4.0f,
                 3.0f});
  Letkf letkf(f.grid, fast_letkf());
  const auto stats = letkf.analyze(f.ens, obs, f.op);
  EXPECT_GT(stats.mean_abs_innovation, 1.0);  // background is ~calm
  EXPECT_LT(stats.mean_abs_innovation, 10.0);
}

// Golden output of the full local analysis: every member byte after
// analyze() is pinned, so a change to the ranking, the localization or the
// weight kernels that moves any bit fails here.  k = 16 members; the obs
// sit on the cell faces of a 500-m lattice at three heights halfway between
// model levels, so a gridpoint sees its candidates at pairwise equal
// distances and the (distance, index) tie-break decides which of them the
// max_obs_per_grid cap keeps.
std::uint64_t fnv1a(std::uint64_t h, std::span<const real> v) {
  for (real x : v) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::uint64_t ensemble_digest(const scale::Ensemble& ens) {
  std::uint64_t h = 1469598103934665603ull;
  for (int m = 0; m < ens.size(); ++m) {
    const scale::State& s = ens.member(m);
    h = fnv1a(h, s.dens.raw());
    h = fnv1a(h, s.rhot.raw());
    h = fnv1a(h, s.momx.raw());
    h = fnv1a(h, s.momy.raw());
    h = fnv1a(h, s.momz.raw());
    for (int t = 0; t < scale::kNumTracers; ++t) h = fnv1a(h, s.rhoq[t].raw());
  }
  return h;
}

TEST(LetkfGolden, AnalysisDigestUnchanged) {
  const Grid grid = lgrid();
  scale::Ensemble ens(grid, scale::convective_sounding(), light_config(), 16);
  Rng rng(20210801);
  scale::PerturbationSpec spec;
  spec.theta_amp = 0.5f;
  spec.qv_frac = 0.05f;
  spec.wind_amp = 0.8f;
  spec.zmax = 8000.0f;
  ens.perturb(spec, rng);
  // Member-dependent rain in a patch, so reflectivity obs carry spread.
  for (int m = 0; m < ens.size(); ++m)
    for (idx i = 5; i < 11; ++i)
      for (idx j = 6; j < 10; ++j)
        for (idx kk = 0; kk < 4; ++kk)
          ens.member(m).rhoq[scale::QR](i, j, kk) =
              ens.member(m).dens(i, j, kk) * real(4e-4 + 1e-4 * (m % 5));

  ObsVector obs;
  for (real z : {1000.0f, 2000.0f, 3000.0f})
    for (int a = 2; a <= 14; ++a)
      for (int b = 2; b <= 14; ++b) {
        const real x = 500.0f * real(a), y = 500.0f * real(b);
        if ((a + b) % 2 == 0)
          obs.push_back({ObsType::kDopplerVelocity, x, y, z,
                         real(0.3 * (a - 8) - 0.2 * (b - 8)), 3.0f});
        else
          obs.push_back({ObsType::kReflectivity, x, y, z,
                         real((a * 7 + b * 3) % 5), 5.0f});
      }

  LetkfConfig cfg = fast_letkf();
  cfg.max_obs_per_grid = 48;  // well below the ~300 candidates per level
  Letkf letkf(grid, cfg);
  ObsOperator op{grid, 4000.0f, 4000.0f, 50.0f};
  const AnalysisStats stats = letkf.analyze(ens, obs, op);

  // Recorded from the per-level ranking and triple-loop Gram build.
  EXPECT_EQ(stats.n_obs_qc, 0u);
  EXPECT_EQ(stats.n_eig_fail, 0u);
  EXPECT_EQ(stats.n_grid_updated, 1536u);
  EXPECT_EQ(stats.n_weight_solved, 1536u);
  EXPECT_EQ(stats.n_weight_reuse, 0u);
  EXPECT_EQ(stats.mean_local_obs * 1536.0, 68520.0);
  const std::uint64_t digest = ensemble_digest(ens);
  EXPECT_EQ(digest, 0x14c9b49dbb42afb1ull)
      << std::hex << "digest 0x" << digest;
}

}  // namespace
}  // namespace bda::letkf
