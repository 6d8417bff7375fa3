// SCALE kernel raw-speed bench: the production (SoA/SIMD) kernels vs the
// serial seed kernels, per kernel and end-to-end.
//
// Every production kernel in src/scale carries a bitwise determinism
// contract: it must produce byte-identical prognostic state to its seed
// counterpart in scale::seed (the per-point loops the restructuring
// replaced, preserved verbatim in src/scale/seed/ and linked from the
// bda_scale_seed oracle library, which no production target links).  This
// bench enforces the contract BEFORE any timing is reported — a single
// differing byte in any field fails the run with a nonzero exit — then times
// each kernel (dynamics, microphysics, turbulence, boundary layer) and the
// end-to-end ensemble advance (scale::Ensemble vs seed::Runner, same member
// order and engine sharing) on a mature convective storm at the Table 3
// column geometry.
//
// Acceptance gate: end-to-end ensemble advance speedup >= 2.00x over the
// seed kernels, read as the median ratio of kTimedPairs alternating
// seed/production runs.  Below the gate the bench exits nonzero so CI
// fails.
//
// Output: human-readable table + BENCH_scale_kernels.json (path overridable
// as argv[1]) with scale.* timers and speedups, CI-archived.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "scale/boundary_layer.hpp"
#include "scale/dynamics.hpp"
#include "scale/ensemble.hpp"
#include "scale/microphysics.hpp"
#include "scale/model.hpp"
#include "scale/seed/seed.hpp"
#include "scale/turbulence.hpp"
#include "util/fpenv.hpp"
#include "util/metrics.hpp"

using namespace bda;
using namespace bda::scale;

namespace {

constexpr int kMembers = 4;       // end-to-end ensemble size
constexpr real kAdvanceS = 12.0f; // end-to-end advance, seconds of model time
constexpr int kKernelReps = 20;   // per-kernel timing repetitions
constexpr int kTimedPairs = 5;    // end-to-end seed/production run pairs

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Paper Table 3 column geometry at reduced horizontal extent (cost): 60
/// surface-refined levels, dz(0) = 80 m, dt = 0.4 s via the HEVI implicit
/// vertical solver.
Grid bench_grid() {
  return Grid::stretched(24, 24, 60, 500.0f, 16400.0f, 80.0f, 1.032f);
}

ModelConfig config() {
  ModelConfig cfg;
  cfg.dt = 0.4f;
  cfg.physics_every = 5;
  return cfg;
}

/// Mature convective storm: spun up with the seed kernels so both kernel
/// sets start from bit-identical initial conditions with active
/// hydrometeors (microphysics skip paths are exercised, not trivially hit).
State storm_state(const Grid& grid) {
  seed::Runner model(grid, convective_sounding(), config());
  add_thermal_bubble(model.member(0), grid, 6000, 6000, 1200, 2500, 1000,
                     3.0f);
  model.advance(60.0f);
  return model.member(0);
}

std::size_t field_mismatch(std::span<const real> a, std::span<const real> b) {
  if (a.size() != b.size()) return a.size() + b.size();
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::memcmp(&a[i], &b[i], sizeof(real)) != 0) ++bad;
  return bad;
}

/// Bitwise comparison over every prognostic field (full allocation, halos
/// included).  Returns the number of differing 32-bit words.
std::size_t state_mismatch(const State& a, const State& b) {
  std::size_t bad = 0;
  bad += field_mismatch(a.dens.raw(), b.dens.raw());
  bad += field_mismatch(a.rhot.raw(), b.rhot.raw());
  bad += field_mismatch(a.momx.raw(), b.momx.raw());
  bad += field_mismatch(a.momy.raw(), b.momy.raw());
  bad += field_mismatch(a.momz.raw(), b.momz.raw());
  for (int t = 0; t < kNumTracers; ++t)
    bad += field_mismatch(a.rhoq[t].raw(), b.rhoq[t].raw());
  return bad;
}

struct KernelResult {
  const char* name;
  double ref_s, opt_s;
};

bool report_bitwise(const char* name, std::size_t bad) {
  if (bad != 0) {
    std::printf("FAIL [%s]: %zu words differ from the seed kernels "
                "(bitwise contract broken)\n",
                name, bad);
    return false;
  }
  return true;
}

/// Per-kernel seed-vs-production: bitwise contract check on one step from
/// the storm state, then timed repetitions.  `step` is called as
/// step(engine, state); timing advances the same trajectory for both kernel
/// sets (they are bitwise identical, so the work sequence is identical too).
template <typename RefEngine, typename OptEngine, typename StepFn>
bool bench_kernel(const char* name, const Grid& grid, const State& base,
                  RefEngine& ref_eng, OptEngine& opt_eng, StepFn step,
                  util::Metrics& metrics, std::vector<KernelResult>& out) {
  // Contract check before any timing.
  State sr = base, so = base;
  step(ref_eng, sr);
  step(opt_eng, so);
  if (!report_bitwise(name, state_mismatch(sr, so))) return false;

  double ref_s = 0, opt_s = 0;
  {
    State s = base;
    const double t0 = now_s();
    for (int r = 0; r < kKernelReps; ++r) step(ref_eng, s);
    ref_s = now_s() - t0;
  }
  {
    State s = base;
    const double t0 = now_s();
    for (int r = 0; r < kKernelReps; ++r) step(opt_eng, s);
    opt_s = now_s() - t0;
  }
  metrics.observe(std::string("scale.kernel.") + name + ".ref_ms_per_step",
                  1e3 * ref_s / kKernelReps);
  metrics.observe(std::string("scale.kernel.") + name + ".opt_ms_per_step",
                  1e3 * opt_s / kKernelReps);
  metrics.observe(std::string("scale.kernel.") + name + ".speedup",
                  ref_s / opt_s);
  out.push_back({name, ref_s, opt_s});
  return true;
}

/// Initial members of the end-to-end run: smooth perturbations plus a warm
/// bubble, the same states for both kernel sets.
std::vector<State> ensemble_members(const Grid& grid) {
  Ensemble ens(grid, convective_sounding(), config(), kMembers);
  PerturbationSpec spec;
  Rng rng(20210723u);
  ens.perturb(spec, rng);
  std::vector<State> members;
  for (int m = 0; m < ens.size(); ++m) {
    add_thermal_bubble(ens.member(m), grid, 6000, 6000, 1200, 2500, 1000,
                       3.0f);
    members.push_back(ens.member(m));
  }
  return members;
}

/// End-to-end: the members advanced kAdvanceS seconds with full physics by
/// `Members` (scale::Ensemble or seed::Runner).  Returns wall seconds;
/// `snapshot` receives the final member states.
template <typename Members>
double run_ensemble(const Grid& grid, const std::vector<State>& init,
                    std::vector<State>* snapshot) {
  Members ens(grid, convective_sounding(), config(), kMembers);
  for (int m = 0; m < kMembers; ++m)
    ens.member(m) = init[static_cast<std::size_t>(m)];
  const double t0 = now_s();
  ens.advance(kAdvanceS);
  const double dt = now_s() - t0;
  if (snapshot) {
    snapshot->clear();
    for (int m = 0; m < kMembers; ++m) snapshot->push_back(ens.member(m));
  }
  return dt;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_scale_kernels.json";

  // Production FP environment (util/fpenv.hpp): the paper's A64FX flushes
  // subnormals by default, and the subnormal tails hyperdiffusion leaves in
  // the tracer planes would otherwise dominate the timings with microcode
  // assists.  Applied on every thread; both kernel sets run under it, and
  // the bitwise ref==opt checks below therefore verify the determinism
  // contract under this environment too.
  const bool ftz = util::enable_flush_to_zero();
#pragma omp parallel
  { util::enable_flush_to_zero(); }

  const Grid grid = bench_grid();
  std::printf("\n=====================================================\n");
  std::printf("SCALE kernels: SoA/SIMD production kernels vs seed kernels\n");
  std::printf("  grid %lld x %lld x %lld (dx = %.0f m, dz0 = %.0f m), "
              "dt = 0.4 s\n",
              (long long)grid.nx(), (long long)grid.ny(),
              (long long)grid.nz(), double(grid.dx()), double(grid.dz(0)));
  std::printf("  bitwise contract checked before every timing; FTZ/DAZ %s\n",
              ftz ? "on (A64FX-like FP environment)" : "unsupported");
  std::printf("=====================================================\n");

  util::Metrics metrics;
  std::vector<KernelResult> results;

  std::printf("\nspinning up convective storm (60 s, seed kernels)...\n");
  const State base = storm_state(grid);
  const auto ref = ReferenceState::build(grid, convective_sounding());
  const real dt = 0.4f;

  bool ok = true;
  const auto step = [&](auto& e, State& s) { e.step(s, dt); };
  {
    seed::Dynamics ref_eng(grid, ref, {});
    Dynamics opt_eng(grid, ref, {});
    ok = ok && bench_kernel("dynamics", grid, base, ref_eng, opt_eng, step,
                            metrics, results);
  }
  {
    seed::Microphysics ref_eng(grid);
    Microphysics opt_eng(grid);
    ok = ok && bench_kernel("microphysics", grid, base, ref_eng, opt_eng,
                            step, metrics, results);
  }
  {
    seed::Turbulence ref_eng(grid);
    Turbulence opt_eng(grid);
    ok = ok && bench_kernel("turbulence", grid, base, ref_eng, opt_eng, step,
                            metrics, results);
  }
  {
    BoundaryLayer ref_tke(grid);  // holds the TKE the seed kernel marches
    seed::BoundaryLayer ref_eng(grid, {}, ref_tke);
    BoundaryLayer opt_eng(grid);
    ok = ok && bench_kernel("boundary_layer", grid, base, ref_eng, opt_eng,
                            step, metrics, results);
  }
  if (!ok) return 1;

  std::printf("\n%-16s %12s %12s %9s\n", "kernel", "ref[ms/st]", "opt[ms/st]",
              "speedup");
  for (const auto& r : results)
    std::printf("%-16s %12.3f %12.3f %8.2fx\n", r.name,
                1e3 * r.ref_s / kKernelReps, 1e3 * r.opt_s / kKernelReps,
                r.ref_s / r.opt_s);

  // End-to-end ensemble advance: bitwise end-state check, then the gate.
  std::printf("\nend-to-end: %d-member ensemble, %.0f s model time, full "
              "physics\n",
              kMembers, double(kAdvanceS));
  const std::vector<State> init = ensemble_members(grid);
  std::vector<State> end_ref, end_opt;
  run_ensemble<seed::Runner>(grid, init, &end_ref);
  run_ensemble<Ensemble>(grid, init, &end_opt);
  for (int m = 0; m < kMembers; ++m) {
    const std::string name = "ensemble member " + std::to_string(m);
    if (!report_bitwise(name.c_str(),
                        state_mismatch(end_ref[std::size_t(m)],
                                       end_opt[std::size_t(m)])))
      return 1;
  }
  // Timed pairs (the checked pass above doubles as warmup): seed and
  // production runs alternate, so a host slowdown lands on both halves of
  // a pair, and the gate reads the median of the per-pair ratios.
  std::vector<double> pair_ref, pair_opt, pair_ratio;
  for (int r = 0; r < kTimedPairs; ++r) {
    pair_ref.push_back(run_ensemble<seed::Runner>(grid, init, nullptr));
    pair_opt.push_back(run_ensemble<Ensemble>(grid, init, nullptr));
    pair_ratio.push_back(pair_ref.back() / pair_opt.back());
    metrics.observe("scale.ensemble.pair_speedup", pair_ratio.back());
  }
  const double ref_s = median(pair_ref);
  const double opt_s = median(pair_opt);
  const double speedup = median(pair_ratio);
  metrics.observe("scale.ensemble.ref_s", ref_s);
  metrics.observe("scale.ensemble.opt_s", opt_s);
  metrics.observe("scale.ensemble.speedup", speedup);
  metrics.count("scale.ensemble.members", kMembers);
  metrics.count("scale.fpenv.ftz", ftz ? 1 : 0);

  std::printf("%-16s %12.3f %12.3f %8.2fx   (median of %d pairs; pair "
              "ratios",
              "ensemble", ref_s, opt_s, speedup, kTimedPairs);
  for (double x : pair_ratio) std::printf(" %.2f", x);
  std::printf(")\n");
  std::printf("\nbitwise check: every kernel and all %d end-to-end members "
              "match the seed kernels\n", kMembers);
  const bool pass = speedup >= 2.0;
  std::printf("acceptance (ensemble advance >= 2.00x): %s\n",
              pass ? "PASS" : "FAIL");

  std::ofstream json(json_path);
  json << metrics.to_json() << "\n";
  std::printf("metrics -> %s\n", json_path.c_str());
  return pass ? 0 : 1;
}
