// PipelinedDriver contract tests.
//
// Two properties carry the tentpole:
//   1. Determinism — overlapping JIT-DT/regrid with the ensemble advance and
//      running product forecasts on worker threads must not change a single
//      bit of the assimilation (the staged-API RNG discipline, cycle.hpp).
//   2. Concurrency accounting — with the rotating-group admission policy,
//      launches + drops account for every cycle exactly, groups never
//      overlap, and the pipeline beats the serial sum of stage times.
// The stress tests run under every sanitizer preset; the tsan build is the
// race gate (all cross-thread state in the driver is BDA_GUARDED_BY).
#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/metrics.hpp"
#include "workflow/pipeline.hpp"

namespace bda::workflow {
namespace {

using scale::Grid;

BdaSystemConfig small_config(int members) {
  BdaSystemConfig cfg;
  cfg.cycle_s = 6.0;  // scaled-down refresh: 10 model steps per cycle
  cfg.n_members = members;
  cfg.model.dt = 0.6f;
  cfg.model.physics_every = 10;
  cfg.model.enable_rad = false;

  cfg.scan.range_max = 8000.0f;
  cfg.scan.gate_length = 500.0f;
  cfg.scan.n_azimuth = 24;
  cfg.scan.n_elevation = 8;

  cfg.radar.radar_x = 4000.0f;
  cfg.radar.radar_y = 4000.0f;
  cfg.radar.radar_z = 50.0f;
  cfg.radar.block_az_from = cfg.radar.block_az_to = 0.0f;

  cfg.obsgen.clear_air = true;
  cfg.obsgen.clear_air_thin = 8;

  cfg.letkf.hloc = 1500.0f;
  cfg.letkf.vloc = 1500.0f;
  cfg.letkf.rtpp_alpha = 0.7f;
  cfg.letkf.z_min = 0.0f;
  cfg.letkf.z_max = 8000.0f;
  cfg.letkf.max_obs_per_grid = 32;

  cfg.perturb.theta_amp = 0.4f;
  cfg.perturb.qv_frac = 0.04f;
  cfg.perturb.wind_amp = 0.6f;
  cfg.perturb.zmax = 6000.0f;
  return cfg;
}

Grid small_grid() {
  return Grid::stretched(14, 14, 8, 500.0f, 8000.0f, 250.0f, 1.12f);
}

// Deliberately minimal configuration for the concurrency/accounting tests:
// the schedule shape is what matters there, not assimilation skill, and the
// cycle must stay cheap even under TSan's instrumentation.
BdaSystemConfig tiny_config(int members) {
  BdaSystemConfig cfg = small_config(members);
  cfg.cycle_s = 3.0;  // 5 model steps per advance
  cfg.scan.range_max = 6000.0f;
  cfg.scan.n_azimuth = 16;
  cfg.scan.n_elevation = 6;
  cfg.radar.radar_x = 2500.0f;
  cfg.radar.radar_y = 2500.0f;
  cfg.obsgen.clear_air_thin = 16;
  cfg.letkf.max_obs_per_grid = 16;
  return cfg;
}

Grid tiny_grid() {
  return Grid::stretched(10, 10, 6, 500.0f, 6000.0f, 300.0f, 1.2f);
}

void expect_bitwise_equal(const scale::State& a, const scale::State& b) {
  auto eq = [](std::span<const real> x, std::span<const real> y,
               const char* what) {
    ASSERT_EQ(x.size(), y.size()) << what;
    EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size() * sizeof(real)), 0)
        << what;
  };
  eq(a.dens.raw(), b.dens.raw(), "dens");
  eq(a.momx.raw(), b.momx.raw(), "momx");
  eq(a.momy.raw(), b.momy.raw(), "momy");
  eq(a.momz.raw(), b.momz.raw(), "momz");
  eq(a.rhot.raw(), b.rhot.raw(), "rhot");
  for (int t = 0; t < scale::kNumTracers; ++t)
    eq(a.rhoq[t].raw(), b.rhoq[t].raw(), scale::tracer_name(t));
}

// The driver must reproduce serial BdaSystem::cycle() bit for bit: same
// analyses, same ensemble, same rng stream — while product forecasts run on
// worker threads and the transfer/regrid overlaps the ensemble advance.
TEST(PipelinedDriver, BitwiseIdenticalToSerialCycle) {
  Grid g = small_grid();
  auto cfg = small_config(4);
  cfg.transfer_scans = true;  // exercise the JIT-DT overlap path too

  auto build = [&] {
    auto sys = std::make_unique<BdaSystem>(g, scale::convective_sounding(),
                                           cfg);
    sys->perturb_ensemble();
    sys->trigger_storm(4000.0f, 4000.0f, 3.5f, /*in_ensemble=*/true,
                       1200.0f);
    sys->spinup(60.0);
    return sys;
  };

  auto serial = build();
  auto piped = build();

  constexpr std::size_t kCycles = 4;
  std::vector<CycleResult> want;
  for (std::size_t c = 0; c < kCycles; ++c) want.push_back(serial->cycle());

  PipelineConfig pcfg;
  pcfg.n_groups = 2;
  pcfg.product_every = 1;      // workers active during the comparison
  pcfg.forecast_lead_s = 0.0;  // initial map only: forecasts stay cheap
  std::vector<CycleResult> got;
  {
    PipelinedDriver driver(*piped, pcfg);
    got = driver.run(kCycles);
    driver.drain();
    EXPECT_EQ(driver.launched() + driver.dropped(), kCycles);
    EXPECT_EQ(driver.products().size(), driver.launched());
  }

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t c = 0; c < kCycles; ++c) {
    EXPECT_EQ(got[c].n_obs, want[c].n_obs) << "cycle " << c;
    EXPECT_EQ(got[c].analysis.n_obs_qc, want[c].analysis.n_obs_qc);
    EXPECT_EQ(got[c].analysis.n_grid_updated, want[c].analysis.n_grid_updated);
    EXPECT_EQ(got[c].analysis.mean_abs_innovation,
              want[c].analysis.mean_abs_innovation);
    EXPECT_EQ(got[c].nature_max_dbz, want[c].nature_max_dbz);
    EXPECT_EQ(got[c].transfer.success, want[c].transfer.success);
    EXPECT_EQ(got[c].transfer.bytes, want[c].transfer.bytes);
  }
  for (int m = 0; m < serial->ensemble().size(); ++m)
    expect_bitwise_equal(serial->ensemble().member(m),
                         piped->ensemble().member(m));
  expect_bitwise_equal(serial->nature().state(), piped->nature().state());
  // Both systems consumed the same number of random draws.
  EXPECT_EQ(serial->rng().uniform(), piped->rng().uniform());
}

// >= 50 concurrent cycles with injected slow forecasts: every cycle is
// accounted for exactly (launched + dropped), no group ever runs two
// forecasts at once, and the pipelined wall clock beats half the serial sum
// of stage times.  Labeled into the tsan suite like every test; this one is
// the designated race workout for the driver.
TEST(PipelinedDriver, StressConcurrentCyclesAccountingExact) {
  Grid g = tiny_grid();
  auto cfg = tiny_config(3);
  BdaSystem sys(g, scale::convective_sounding(), cfg);
  sys.perturb_ensemble();

  // Calibrate the injected runtimes to this host/build: measure the mean
  // wall cost of one cycle first, then make a normal product forecast
  // 3 cycles long (sustained by the 4-group rotation, the paper's 120 s
  // vs 4 x 30 s balance) and the "heavy rain" burst 10 cycles long
  // (guaranteed saturation) — so the schedule shape survives sanitizer
  // slowdowns instead of being tuned to one build type.
  util::Metrics warm;
  {
    PipelineConfig wcfg;
    wcfg.n_groups = 1;
    wcfg.product_every = 0;
    PipelinedDriver warmup(sys, wcfg, &warm);
    warmup.run(5);
  }
  const double cyc_s =
      std::max(warm.timer_stats("pipeline.cycle").mean_s, 0.02);
  const double normal_s = 3.0 * cyc_s;
  const double heavy_s = 10.0 * cyc_s;

  util::Metrics metrics;
  sys.set_metrics(&metrics);

  // Cycles 20..23 are heavy-rain forecasts: all four groups go busy at
  // once for far longer than any cadence, so the following cycles MUST
  // drop — and every drop must be counted, never silently miscounted or
  // run on a busy group.
  PipelineConfig pcfg;
  pcfg.n_groups = 4;
  pcfg.product_every = 1;
  pcfg.forecast_lead_s = 0.0;  // injected sleep stands in for the runtime
  pcfg.sleep_for_cycle = [=](std::size_t c) {
    return (c >= 20 && c < 24) ? heavy_s : normal_s;
  };

  constexpr std::size_t kCycles = 50;
  const auto wall_t0 = std::chrono::steady_clock::now();
  PipelinedDriver driver(sys, pcfg, &metrics);
  const auto results = driver.run(kCycles);
  driver.drain();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_t0)
          .count();

  ASSERT_EQ(results.size(), kCycles);

  // Exact accounting: every cycle either launched or dropped, and every
  // launch produced exactly one record.  Counters agree with the totals.
  EXPECT_EQ(driver.launched() + driver.dropped(), kCycles);
  const auto products = driver.products();
  EXPECT_EQ(products.size(), driver.launched());
  EXPECT_EQ(metrics.counter("pipeline.launched"), driver.launched());
  EXPECT_EQ(metrics.counter("pipeline.dropped"), driver.dropped());
  EXPECT_EQ(metrics.samples("pipeline.tts"), products.size());
  // The heavy-rain burst saturates the rotation: some cycles must drop,
  // but never the majority.
  EXPECT_GT(driver.dropped(), 0u);
  EXPECT_GT(driver.launched(), kCycles / 2);

  // Per-group serialization: a group's next admission never precedes its
  // previous completion (no two forecasts ever shared a group).
  std::map<int, std::vector<const ProductRecord*>> by_group;
  for (const auto& p : products) {
    EXPECT_GE(p.group, 0);
    EXPECT_LT(p.group, pcfg.n_groups);
    EXPECT_GE(p.tts_s, normal_s * 0.99);  // at least the injected runtime
    EXPECT_GE(p.t_done_s, p.t_admit_s);
    EXPECT_GE(p.t_admit_s, p.t_obs_s);
    by_group[p.group].push_back(&p);
  }
  for (auto& [group, recs] : by_group) {
    std::sort(recs.begin(), recs.end(),
              [](const ProductRecord* a, const ProductRecord* b) {
                return a->t_admit_s < b->t_admit_s;
              });
    for (std::size_t i = 1; i < recs.size(); ++i)
      EXPECT_GE(recs[i]->t_admit_s, recs[i - 1]->t_done_s - 1e-6)
          << "group " << group << " overlapped";
  }

  // The acceptance bar: pipelined wall clock beats half the serial sum of
  // the measured stage times (cycles + every launched forecast).
  const double serial_sum = metrics.total("pipeline.cycle") +
                            metrics.total("pipeline.forecast");
  EXPECT_LT(wall, 0.5 * serial_sum)
      << "wall=" << wall << " serial_sum=" << serial_sum;
}

// A rotation sized for the runtime (paper: 4 x 30 s >= 120 s) sustains one
// product per cycle with zero drops.
TEST(PipelinedDriver, SustainedRotationNeverDrops) {
  Grid g = tiny_grid();
  auto cfg = tiny_config(3);
  BdaSystem sys(g, scale::convective_sounding(), cfg);
  sys.perturb_ensemble();

  PipelineConfig pcfg;
  pcfg.n_groups = 4;
  pcfg.product_every = 1;
  pcfg.forecast_lead_s = 0.0;
  pcfg.cycle_sleep_s = 0.08;
  pcfg.forecast_sleep_s = 0.24;  // 3 x cadence < n_groups x cadence

  PipelinedDriver driver(sys, pcfg);
  driver.run(20);
  driver.drain();
  EXPECT_EQ(driver.dropped(), 0u);
  EXPECT_EQ(driver.launched(), 20u);
  EXPECT_EQ(driver.products().size(), 20u);
}

// product_every = 0 disables the forecast path entirely.
TEST(PipelinedDriver, NoProductsWhenDisabled) {
  Grid g = tiny_grid();
  auto cfg = tiny_config(3);
  BdaSystem sys(g, scale::convective_sounding(), cfg);
  sys.perturb_ensemble();

  PipelineConfig pcfg;
  pcfg.n_groups = 2;
  pcfg.product_every = 0;
  PipelinedDriver driver(sys, pcfg);
  const auto results = driver.run(3);
  driver.drain();
  EXPECT_EQ(results.size(), 3u);
  EXPECT_EQ(driver.launched(), 0u);
  EXPECT_EQ(driver.dropped(), 0u);
  EXPECT_TRUE(driver.products().empty());
}

// Destroying the driver with forecasts still in flight joins them cleanly
// (no leaks, no races, no lost records before the join).
TEST(PipelinedDriver, DestructorJoinsInFlightForecasts) {
  Grid g = tiny_grid();
  auto cfg = tiny_config(3);
  BdaSystem sys(g, scale::convective_sounding(), cfg);
  sys.perturb_ensemble();

  PipelineConfig pcfg;
  pcfg.n_groups = 2;
  pcfg.product_every = 1;
  pcfg.forecast_lead_s = 0.0;
  pcfg.forecast_sleep_s = 0.2;
  {
    PipelinedDriver driver(sys, pcfg);
    driver.run(2);  // no drain: forecasts still sleeping at destruction
  }
  SUCCEED();
}

// Thread budget (hpc/thread_budget.hpp): each forecast worker runs at
// total/(n_groups+1) threads, the main cycle keeps the rest for the length
// of run(), and the caller's setting is back when run() returns.  Each case
// runs on a fresh caller thread with its own system, so no OpenMP pool
// carries over from one budget to the next.
//
// Skipped under TSan: the distro libgomp is not instrumented, so TSan cannot
// see the barrier that ends a parallel region.  Its libgomp suppression
// (docs/ANALYSIS.md) matches only while the worker-side stack can be
// restored; at these team sizes it could not be, and the main thread's
// post-barrier reads of the nature state were reported as races.
#if defined(__SANITIZE_THREAD__)
#define BDA_SKIP_UNDER_TSAN() \
  GTEST_SKIP() << "TSan cannot see libgomp barriers (docs/ANALYSIS.md)"
#else
#define BDA_SKIP_UNDER_TSAN() (void)0
#endif

TEST(PipelinedDriver, WorkersAndMainSplitTheBudget) {
  BDA_SKIP_UNDER_TSAN();
  struct Case {
    int total, groups, keep, each;
  };
  const Case cases[] = {{4, 1, 2, 2}, {4, 2, 2, 1}, {5, 1, 3, 2},
                        {2, 4, 1, 1}};
  for (const Case& c : cases) {
    std::thread caller([&c] {
      omp_set_num_threads(c.total);
      BdaSystem sys(tiny_grid(), scale::convective_sounding(),
                    tiny_config(3));
      sys.perturb_ensemble();
      std::vector<int> main_seen;
      PipelineConfig pcfg;
      pcfg.n_groups = c.groups;
      pcfg.product_every = 1;
      pcfg.forecast_lead_s = 0.0;
      pcfg.sleep_for_cycle = [&](std::size_t) {
        main_seen.push_back(omp_get_max_threads());  // main thread, in run()
        return 0.0;
      };
      PipelinedDriver driver(sys, pcfg);
      driver.run(2);
      driver.drain();
      EXPECT_EQ(omp_get_max_threads(), c.total) << "caller's setting restored";
      EXPECT_EQ(main_seen, std::vector<int>(2, c.keep))
          << c.total << " threads, " << c.groups << " groups";
      const auto products = driver.products();
      EXPECT_FALSE(products.empty());
      for (const auto& p : products)
        EXPECT_EQ(p.threads, c.each)
            << c.total << " threads, " << c.groups << " groups";
    });
    caller.join();
  }
}

TEST(PipelinedDriver, RunRestoresCallerBudgetWhenItThrows) {
  BDA_SKIP_UNDER_TSAN();
  std::thread caller([] {
    omp_set_num_threads(5);
    BdaSystem sys(tiny_grid(), scale::convective_sounding(), tiny_config(3));
    sys.perturb_ensemble();
    PipelineConfig pcfg;
    pcfg.n_groups = 2;
    pcfg.product_every = 1;
    pcfg.forecast_lead_s = 0.0;
    pcfg.sleep_for_cycle = [](std::size_t) -> double {
      throw std::runtime_error("admission failed");
    };
    PipelinedDriver driver(sys, pcfg);
    EXPECT_THROW(driver.run(1), std::runtime_error);
    EXPECT_EQ(omp_get_max_threads(), 5);
  });
  caller.join();
}

}  // namespace
}  // namespace bda::workflow
