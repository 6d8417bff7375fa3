// The three workloads of the repo benchmark (perfbench/README.md).
//
// rapid_refresh and sharded_30s drive the staged BdaSystem cycle in a
// closed loop and time it from outside, around each public call:
//
//   advance_and_observe  nature run + radar scan: the simulated world,
//                        excluded from time-to-solution
//   transfer_scan        JIT-DT               (jitdt)
//   regrid_observations  obs regrid           (pawr)
//   advance_ensemble     <1-2> advance        (scale; hpc when sharded)
//   finish_analysis      <1-1> LETKF          (letkf; hpc when sharded)
//
// products drives one PipelinedDriver::run(N) and reads the program's own
// records (ProductRecord, CycleResult, util::Metrics).  Every workload
// publishes each analysis through serve::Publisher while a client thread
// reads tiles (serving.hpp).
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "bench/common.hpp"
#include "serving.hpp"
#include "util/stats.hpp"
#include "verify/scores.hpp"
#include "workflow/pipeline.hpp"

namespace perfbench {

using namespace bda;

namespace {

// --- Workload definitions --------------------------------------------------

struct Spec {
  const char* name;
  int members;
  double cycle_s;         ///< model seconds per cycle
  int clear_air_thin;     ///< 1 = every clear-air cell is an observation
  float loc_m;            ///< hloc = vloc; 0 keeps the Table 2 value
  int max_obs_per_grid;   ///< 0 keeps the osse_config value
  bool sharded;           ///< enable_sharding(2, 2)
  /// Seconds of --seconds budgeted per cycle: a run makes seconds / this
  /// cycles, so two builds always do the same work.  It is the wall period
  /// on the reference host (4 cores), except for products, whose paced
  /// cycles take longer: it overruns --seconds to keep 20 samples.  The
  /// scaled 3-minute bar is six of these.
  double nominal_period_s;
};

// LETKF at about half of scan-to-analysis: dense obs, wide localization.
constexpr Spec kRapidRefresh{"rapid_refresh", 16, 6.0, 1, 4000.0f, 600,
                             false, 0.62};
// The paper's 30-s cycle through rank blocks, shuffle and halo exchange;
// the <1-2> advance dominates.
constexpr Spec kSharded30s{"sharded_30s", 8, 30.0, 4, 0.0f, 0, true, 0.95};
// Product forecasts <2> beside the cycle; the wall cadence is paced.
constexpr Spec kProducts{"products", 4, 30.0, 4, 0.0f, 0, false, 1.25};

constexpr int kSetupReps = 3;       ///< set-ups per run; setup_s is the median
constexpr std::size_t kMinCycles = 12;
/// Analysis-mean digests are taken after this cycle (comparable between a
/// run's main and baseline passes) and after the run's last cycle.
constexpr std::size_t kDigestCycle = 2;
using Digests = std::map<std::size_t, std::uint64_t>;  ///< cycle -> hash

// Storm set-up (README "Set-up"): the nature run carries a mature storm;
// the ensemble starts from the truth kLagS seconds earlier plus random
// perturbations, so members hold a younger, weaker storm the radar has to
// correct.  Spinning every member through the storm's whole life would
// cost members x 360 s of model time per set-up.
//
// The perturbations are drawn from the configuration's fixed seed and are
// part of the workload; --seed then reseeds the system's generator, which
// draws the radar observation noise.  With 4-8 members the analysis RMSE
// depends on the perturbation draw far more than on anything the program
// does (README "Set-up").
constexpr double kNatureLeadS = 300.0;
constexpr double kLagS = 60.0;
constexpr double kJointSpinupS = 12.0;

// products: the pipeline's pacing and the <2> forecast.
constexpr double kCycleSleepS = 0.2;
constexpr int kGroups = 2;
constexpr double kForecastLeadS = 120.0;
constexpr double kForecastOutEveryS = 30.0;

/// The paper's 3-minute bar is six 30-s cycles; scaled to a workload it is
/// six nominal wall cycle periods.
double bar_s(const Spec& s) { return 6.0 * s.nominal_period_s; }

std::size_t cycles_for(const Spec& s, double seconds) {
  return std::max(kMinCycles,
                  static_cast<std::size_t>(std::lround(seconds /
                                                       s.nominal_period_s)));
}

workflow::BdaSystemConfig make_config(const Spec& s) {
  auto cfg = bench::osse_config(s.members);
  cfg.cycle_s = s.cycle_s;
  cfg.transfer_scans = true;
  cfg.obsgen.clear_air_thin = s.clear_air_thin;
  if (s.loc_m > 0) {
    cfg.letkf.hloc = s.loc_m;
    cfg.letkf.vloc = s.loc_m;
  }
  if (s.max_obs_per_grid > 0) cfg.letkf.max_obs_per_grid = s.max_obs_per_grid;
  return cfg;
}

std::unique_ptr<workflow::BdaSystem> build_storm_system(const Spec& s,
                                                        std::uint64_t seed) {
  auto sys = std::make_unique<workflow::BdaSystem>(
      bench::osse_grid(), scale::convective_sounding(), make_config(s));
  sys->trigger_storm(6000.0f, 6000.0f, 4.0f, /*in_ensemble=*/false);
  sys->spinup_nature(kNatureLeadS);
  for (int m = 0; m < sys->ensemble().size(); ++m)
    sys->ensemble().member(m) = sys->nature().state();
  sys->perturb_ensemble();
  sys->rng() = Rng(seed);
  sys->spinup_nature(kLagS);
  sys->spinup(kJointSpinupS);
  return sys;
}

std::uint64_t state_digest(const scale::State& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto add = [&](const RField3D& f) {
    const auto raw = f.raw();
    h = fnv1a(raw.data(), raw.size_bytes(), h);
  };
  add(s.dens);
  add(s.momx);
  add(s.momy);
  add(s.momz);
  add(s.rhot);
  for (const auto& q : s.rhoq) add(q);
  return h;
}

/// Member-cell-steps of one cycle's <1-2> advance.
double cycle_cell_steps(const Spec& s, const workflow::BdaSystem& sys) {
  const auto& g = sys.grid();
  const double steps =
      std::floor(s.cycle_s / double(sys.config().model.dt) + 1e-6);
  return double(s.members) * double(g.nx() * g.ny() * g.nz()) * steps;
}

double refl_rmse(workflow::BdaSystem& sys, const scale::State& mean) {
  return verify::rmse(sys.reflectivity_map(mean),
                      sys.reflectivity_map(sys.nature().state()));
}

/// Sum of samples over every timer series of a metrics sink.
double metrics_samples(const util::Metrics& m) {
  double n = 0;
  for (const auto& name : m.timer_names()) n += double(m.samples(name));
  return n;
}

void print_tail(const char* metric, const Tail& t) {
  std::printf("  %-22s p%.1f of n=%zu -> %.6f\n", metric, t.percentile, t.n,
              t.value);
}

void print_digests(const char* workload, std::uint64_t seed, const char* pass,
                   const Digests& digests) {
  for (const auto& [cycle, h] : digests)
    std::printf("digest %s seed=%llu pass=%s cycle=%zu %016llx\n", workload,
                static_cast<unsigned long long>(seed), pass, cycle,
                static_cast<unsigned long long>(h));
}

/// Count the client's checked hits against the run; every hit is one
/// operation.
void tally_serving(const Serving& sv, Result& r) {
  r.attempted += sv.hits();
  r.failed += sv.bad_hits();
  if (sv.bad_hits() != 0)
    r.failures.push_back(std::to_string(sv.stale_hits()) + " stale and " +
                         std::to_string(sv.decode_failures()) +
                         " undecodable tile hits");
}

/// Metrics of the serving tier shared by every workload: publish lag from
/// the analysis, and the client's view.
void serving_layer(const Serving& sv, const std::map<std::uint64_t, double>&
                                          t_analysis,
                   Result& r) {
  const auto commit = sv.commit_times();
  std::vector<double> lag;
  for (const auto& [c, t] : commit)
    if (t_analysis.count(c)) lag.push_back(t - t_analysis.at(c));
  r.set("serve.publish_lag_s", percentile(lag, 50.0), "s");
  r.set("serve.get_us_p50", percentile(sv.get_us(), 50.0), "us");
  r.set("serve.hit_frac",
        sv.requests() ? double(sv.hits()) / double(sv.requests()) : 0.0, "1");
  r.set("serve.stale_hits", double(sv.stale_hits()), "count");
  r.set("serve.client_late_s", percentile(sv.late_s(), 99.0), "s");
}

// --- Closed-loop staged cycle (rapid_refresh, sharded_30s) -----------------

struct ClosedRig {
  util::Metrics metrics;
  std::unique_ptr<workflow::BdaSystem> sys;
  std::unique_ptr<Serving> serving;
};

std::unique_ptr<ClosedRig> setup_closed(const Spec& s, std::uint64_t seed,
                                        bool sharded) {
  auto rig = std::make_unique<ClosedRig>();
  rig->sys = build_storm_system(s, seed);
  if (sharded) rig->sys->enable_sharding(2, 2);
  rig->sys->set_metrics(&rig->metrics);
  rig->serving =
      std::make_unique<Serving>(rig->sys->grid(), seed, &rig->metrics);
  return rig;
}

struct CycleRec {
  double t_world0 = 0;   ///< advance_and_observe called
  double t_obs = 0;      ///< advance_and_observe returned: scan complete
  double t_transfer = 0, t_regrid = 0, t_advance = 0;
  double t_bg_done = 0;  ///< background check finished (not in TTS)
  double t_analysis = 0;  ///< finish_analysis returned
  double t_submit0 = 0, t_submit1 = 0;  ///< Publisher::submit call
  double tts = 0;         ///< t_obs -> t_analysis minus the background check
  double bg_rmse = 0, an_rmse = 0;
  workflow::CycleResult res;

  /// Seconds of the benchmark's own background check inside t_obs -> t.
  double bg_check_s() const { return t_bg_done - t_advance; }
};

/// Run `n` staged cycles.  With a trace, every cycle records its spans
/// after the cycle's last timestamp; `trace_s` sums the time that takes.
std::vector<CycleRec> run_closed_cycles(ClosedRig& rig, std::size_t n,
                                        Trace* trace, Result& r,
                                        Digests& digests,
                                        double* trace_s = nullptr) {
  auto& sys = *rig.sys;
  std::vector<CycleRec> recs;
  recs.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    CycleRec rec;
    rec.t_world0 = now_s();
    auto scans = sys.advance_and_observe();
    rec.t_obs = now_s();
    sys.transfer_scan(scans);
    rec.t_transfer = now_s();
    const letkf::ObsVector obs = sys.regrid_observations(scans);
    rec.t_regrid = now_s();
    sys.advance_ensemble();
    rec.t_advance = now_s();
    rec.bg_rmse = refl_rmse(sys, sys.ensemble().mean());
    rec.t_bg_done = now_s();
    rec.res = sys.finish_analysis(std::move(scans.partial), obs);
    rec.t_analysis = now_s();
    rec.tts = (rec.t_analysis - rec.t_obs) - rec.bg_check_s();
    // The analysis mean goes to the publisher as PipelinedDriver hands it
    // over; the output checks run after, on a mean of their own.
    rec.t_submit0 = now_s();
    rig.serving->submit(c, sys.grid(), sys.ensemble().mean());
    rec.t_submit1 = now_s();

    const scale::State mean = sys.ensemble().mean();
    rec.an_rmse = refl_rmse(sys, mean);
    const auto& a = rec.res.analysis;
    r.check(!mean.has_nonfinite() && a.n_eig_fail == 0 && rec.res.n_obs > 0,
            "cycle " + std::to_string(c) + ": non-finite analysis, eig_fail " +
                std::to_string(a.n_eig_fail) + " or obs " +
                std::to_string(rec.res.n_obs));
    if (c == kDigestCycle || c + 1 == n) digests[c] = state_digest(mean);

    if (trace) {
      const double t_trace0 = now_s();
      const long cl = static_cast<long>(c);
      const int root = trace->add("cycle", rec.t_world0, rec.t_submit1, cl);
      trace->add("advance_and_observe", rec.t_world0, rec.t_obs, cl, root);
      const int tr = trace->add("transfer_scan", rec.t_obs, rec.t_transfer,
                                cl, root);
      trace->count(tr, "bytes", double(rec.res.transfer.bytes));
      trace->count(tr, "virtual_s", rec.res.transfer.elapsed_s);
      trace->count(tr, "restarts", rec.res.transfer.restarts);
      const int rg = trace->add("regrid_observations", rec.t_transfer,
                                rec.t_regrid, cl, root);
      trace->count(rg, "obs", double(obs.size()));
      trace->add("advance_ensemble", rec.t_regrid, rec.t_advance, cl, root);
      trace->add("background_check", rec.t_advance, rec.t_bg_done, cl, root);
      const int fa = trace->add("finish_analysis", rec.t_bg_done,
                                rec.t_analysis, cl, root);
      trace->count(fa, "weight_solves", double(a.n_weight_solved));
      trace->count(fa, "weight_reuse", double(a.n_weight_reuse));
      trace->count(fa, "eig_fail", double(a.n_eig_fail));
      trace->count(fa, "obs_qc", double(a.n_obs_qc));
      trace->add("publisher.submit", rec.t_submit0, rec.t_submit1, cl, root);
      if (trace_s) *trace_s += now_s() - t_trace0;
    }
    recs.push_back(std::move(rec));
  }
  return recs;
}

/// Median advance_ensemble time over the first `n` cycles.
double median_advance(const std::vector<CycleRec>& recs, std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < std::min(n, recs.size()); ++i)
    v.push_back(recs[i].t_advance - recs[i].t_regrid);
  return percentile(v, 50.0);
}

/// The run-level output check: the analysis beats its background.
/// Returns the run-mean analysis RMSE.
double check_rmse(const std::vector<CycleRec>& recs, Result& r) {
  RunningStats bg, an;
  for (const auto& c : recs) {
    bg.add(c.bg_rmse);
    an.add(c.an_rmse);
  }
  r.check(an.mean() < bg.mean(),
          "run-mean analysis RMSE " + std::to_string(an.mean()) +
              " not below background " + std::to_string(bg.mean()));
  std::printf("  run-mean RMSE: background %.4f -> analysis %.4f dBZ\n",
              bg.mean(), an.mean());
  return an.mean();
}

/// Print self time by span name and write the spans to the trace dir.
void report_trace(const Trace& trace, const Args& args, const char* name) {
  std::printf("  self time by span (s, %zu spans):\n", trace.size());
  for (const auto& [span, s] : trace.self_time_by_name())
    std::printf("    %-22s %10.4f\n", span.c_str(), s);
  const std::string path = args.trace_dir + "/" + name + "-seed" +
                           std::to_string(args.seed) + ".jsonl";
  if (trace.write_jsonl(path)) std::printf("  spans -> %s\n", path.c_str());
}

/// Letkf/pawr/jitdt counts, summed from the records the program returned.
void analysis_counts(const std::vector<workflow::CycleResult>& res,
                     double letkf_seconds, Result& r) {
  double solved = 0, reuse = 0, local = 0, qc = 0, in = 0, eig = 0, obs = 0,
         vt = 0, bytes = 0, restarts = 0;
  for (const auto& c : res) {
    solved += double(c.analysis.n_weight_solved);
    reuse += double(c.analysis.n_weight_reuse);
    local += c.analysis.mean_local_obs;
    qc += double(c.analysis.n_obs_qc);
    in += double(c.analysis.n_obs_in);
    eig += double(c.analysis.n_eig_fail);
    obs += double(c.n_obs);
    vt += c.transfer.elapsed_s;
    bytes += double(c.transfer.bytes);
    restarts += c.transfer.restarts;
  }
  const double n = std::max<double>(1.0, double(res.size()));
  r.set("letkf.us_per_solve", solved > 0 ? 1e6 * letkf_seconds / solved : 0.0,
        "us");
  r.set("letkf.weight_solves", solved / n, "count");
  r.set("letkf.reuse_ratio", reuse + solved > 0 ? reuse / (reuse + solved) : 0,
        "1");
  r.set("letkf.mean_local_obs", local / n, "count");
  r.set("letkf.qc_reject_frac", in > 0 ? qc / in : 0.0, "1");
  r.set("letkf.eig_fail", eig, "count");
  r.set("pawr.obs_per_cycle", obs / n, "count");
  r.set("jitdt.virtual_s", vt / n, "s");
  r.set("jitdt.bytes_per_cycle", bytes / n, "B");
  r.set("jitdt.restarts", restarts, "count");
}

/// The products-only layers read zero on the closed-loop workloads.
void zero_workflow_layers(Result& r) {
  r.set("scale.forecast_s", 0.0, "s");
  r.set("workflow.admit_wait_s", 0.0, "s");
  r.set("workflow.launched", 0.0, "count");
  r.set("workflow.dropped", 0.0, "count");
}

void run_closed(const Spec& spec, const Args& args, Result& r) {
  std::vector<double> setup_times;
  std::vector<std::uint64_t> setup_digests;
  std::unique_ptr<ClosedRig> rig;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rig.reset();
    const double t0 = now_s();
    rig = setup_closed(spec, args.seed, spec.sharded);
    setup_times.push_back(now_s() - t0);
    setup_digests.push_back(state_digest(rig->sys->ensemble().mean()));
  }
  std::size_t setup_mismatch = 0;
  for (auto d : setup_digests) setup_mismatch += d != setup_digests[0];
  std::printf("  set-up repeats: %d, digest mismatches %zu\n", kSetupReps,
              setup_mismatch);

  const std::size_t n = cycles_for(spec, args.seconds);
  const double cell_steps = cycle_cell_steps(spec, *rig->sys);

  if (!args.trace) {
    Digests digests;
    const double cpu0 = process_cpu_s();
    const auto recs = run_closed_cycles(*rig, n, nullptr, r, digests);
    const bool drained = rig->serving->finish();
    const double cpu1 = process_cpu_s();
    r.check(drained, "publisher did not drain");
    print_digests(spec.name, args.seed, "main", digests);

    const double an_rmse = check_rmse(recs, r);
    tally_serving(*rig->serving, r);
    std::vector<double> tts;
    for (const auto& c : recs) tts.push_back(c.tts);

    // Products of the closed loop: the analysis-mean tiles.  "Written" is
    // their commit into the cache.  Both times leave out the background
    // check, which is the benchmark's own work.
    const auto commit = rig->serving->commit_times();
    const auto hit = rig->serving->first_hit_times();
    std::vector<double> product_tts, served_tts;
    std::size_t ontime = 0;
    for (std::size_t c = 0; c < n; ++c) {
      const double t_obs = recs[c].t_obs + recs[c].bg_check_s();
      const auto it = commit.find(c);
      if (it != commit.end()) {
        product_tts.push_back(it->second - t_obs);
        if (it->second - t_obs <= bar_s(spec) &&
            !rig->serving->bad_cycles().count(c))
          ++ontime;
      }
      if (hit.count(c)) served_tts.push_back(hit.at(c) - t_obs);
    }

    const Tail tt = tail_of(tts), pt = tail_of(product_tts);
    print_tail("analysis_tts_tail_s", tt);
    print_tail("product_tts_tail_s", pt);
    r.set("setup_s", percentile(setup_times, 50.0), "s");
    r.set("analysis_tts_p50_s", percentile(tts, 50.0), "s");
    r.set("analysis_tts_tail_s", tt.value, "s");
    r.set("analysis_rmse_dbz", an_rmse, "dBZ");
    r.set("product_tts_p50_s", percentile(product_tts, 50.0), "s");
    r.set("product_tts_tail_s", pt.value, "s");
    r.set("served_tts_p50_s", percentile(served_tts, 50.0), "s");
    r.set("product_ontime_frac", double(ontime) / double(n), "1");
    r.set("cpu_s_per_cycle", (cpu1 - cpu0) / double(n), "s");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced run: the main pass with spans, then the baseline pass on a fresh
  // set-up of the same seed — at one OpenMP thread (rapid_refresh) or
  // unsharded (sharded_30s).  Both compare the same cycles.
  const std::size_t n_main = std::max(kMinCycles, n * 3 / 5);
  const std::size_t n_base = std::max<std::size_t>(kDigestCycle + 1, n / 6);
  Trace trace;
  Digests digests, base_digests;
  const double samples0 = metrics_samples(rig->metrics);
  double trace_s = 0;
  const auto recs =
      run_closed_cycles(*rig, n_main, &trace, r, digests, &trace_s);
  r.check(rig->serving->finish(), "publisher did not drain");
  check_rmse(recs, r);
  tally_serving(*rig->serving, r);
  std::map<std::uint64_t, double> t_an;
  for (std::size_t c = 0; c < recs.size(); ++c) t_an[c] = recs[c].t_analysis;
  serving_layer(*rig->serving, t_an, r);
  r.set("serve.superseded", double(rig->serving->publisher().superseded()),
        "count");
  r.set("util.metrics_samples_per_cycle",
        (metrics_samples(rig->metrics) - samples0) / double(n_main),
        "count");
  const double shuffle_bytes =
      double(rig->metrics.counter("shard.shuffle_bytes"));
  const double peak_mailbox =
      spec.sharded ? double(rig->sys->sharded_engine()->peak_mailbox_depth())
                   : 0.0;
  rig.reset();

  const int threads = omp_get_max_threads();
  auto base_rig = setup_closed(spec, args.seed, /*sharded=*/false);
  if (!spec.sharded) omp_set_num_threads(1);
  const auto base = run_closed_cycles(*base_rig, n_base, nullptr, r,
                                      base_digests);
  omp_set_num_threads(threads);
  r.check(base_rig->serving->finish(), "publisher did not drain");
  tally_serving(*base_rig->serving, r);
  base_rig.reset();

  const char* base_name = spec.sharded ? "unsharded" : "one_thread";
  print_digests(spec.name, args.seed, "main", digests);
  print_digests(spec.name, args.seed, base_name, base_digests);
  std::printf("  determinism: %s vs main digest at cycle %zu: %s (not gated)\n",
              base_name, kDigestCycle,
              digests[kDigestCycle] == base_digests[kDigestCycle] ? "match"
                                                                  : "MISMATCH");

  // Timings from the spans; counts from every cycle's returned record.
  const auto adv = trace.durations("advance_ensemble");
  const auto fin = trace.durations("finish_analysis");
  std::vector<double> tts, world, period;
  std::vector<workflow::CycleResult> results;
  double fin_total = 0;
  for (std::size_t c = 0; c < recs.size(); ++c) {
    tts.push_back(recs[c].tts);
    world.push_back(recs[c].t_obs - recs[c].t_world0);
    if (c > 0) period.push_back(recs[c].t_obs - recs[c - 1].t_obs);
    results.push_back(recs[c].res);
    fin_total += recs[c].t_analysis - recs[c].t_bg_done;
  }
  const double main_adv = median_advance(recs, n_base);
  const double base_adv = median_advance(base, n_base);
  const double adv_p50 = percentile(adv, 50.0);
  const double fin_p50 = percentile(fin, 50.0);
  r.set("scale.advance_s", adv_p50, "s");
  r.set("scale.member_cell_steps_per_s", cell_steps / adv_p50, "1/s");
  r.set("scale.omp_efficiency",
        spec.sharded ? 0.0 : base_adv / (main_adv * double(threads)), "1");
  r.set("scale.world_s", percentile(world, 50.0), "s");
  r.set("letkf.analysis_s", fin_p50, "s");
  analysis_counts(results, fin_total, r);
  r.set("pawr.regrid_s",
        percentile(trace.durations("regrid_observations"), 50.0), "s");
  r.set("jitdt.transfer_s", percentile(trace.durations("transfer_scan"), 50.0),
        "s");
  r.set("hpc.advance_s", spec.sharded ? adv_p50 : 0.0, "s");
  r.set("hpc.analyze_s", spec.sharded ? fin_p50 : 0.0, "s");
  r.set("hpc.shuffle_bytes_per_cycle", shuffle_bytes / double(n_main), "B");
  r.set("hpc.peak_mailbox", peak_mailbox, "count");
  r.set("hpc.sharding_speedup", spec.sharded ? base_adv / main_adv : 0.0, "1");
  r.set("workflow.cycle_period_s", percentile(period, 50.0), "s");
  zero_workflow_layers(r);
  r.set("trace.overhead_frac",
        trace_s / double(recs.size()) / percentile(tts, 50.0), "1");

  std::printf("  baseline pass (%s): %zu cycles, advance %.4f s vs %.4f s "
              "main (%d threads)\n",
              base_name, base.size(), base_adv, main_adv, threads);
  report_trace(trace, args, spec.name);
}

// --- Pipelined products ----------------------------------------------------

struct HookRec {
  bool seen = false;
  double t_analysis = 0;  ///< analysis done: the driver's admission call
  /// Seconds the hook spent on the benchmark's own checks.  They delay the
  /// forecast's admission and the publisher hand-over that follow, so the
  /// product, admission, publish and served times leave them out.
  double check_s = 0;
  double rmse = 0;
  bool finite = true;
};

struct ProductsRig {
  util::Metrics metrics;
  std::unique_ptr<workflow::BdaSystem> sys;
  std::unique_ptr<Serving> serving;
  std::vector<HookRec> hook;
  Digests digests;
  double t_driver0 = 0;  ///< the driver's clock origin on now_s()
  std::unique_ptr<workflow::PipelinedDriver> driver;  ///< destroyed first
};

std::unique_ptr<ProductsRig> setup_products(const Spec& s, std::uint64_t seed,
                                            std::size_t n_cycles) {
  auto rig = std::make_unique<ProductsRig>();
  rig->sys = build_storm_system(s, seed);
  rig->sys->set_metrics(&rig->metrics);
  rig->serving =
      std::make_unique<Serving>(rig->sys->grid(), seed, &rig->metrics);
  rig->hook.resize(n_cycles);

  workflow::PipelineConfig pcfg;
  pcfg.n_groups = kGroups;
  pcfg.product_every = 1;
  pcfg.forecast_lead_s = kForecastLeadS;
  pcfg.forecast_out_every_s = kForecastOutEveryS;
  pcfg.forecast_sleep_s = 0.0;
  pcfg.cycle_sleep_s = kCycleSleepS;
  pcfg.publisher = &rig->serving->publisher();
  // The driver asks for the forecast's injected sleep on the main thread
  // right after finish_analysis returns: that call marks "analysis done",
  // and the analysis is checked there.
  ProductsRig* p = rig.get();
  pcfg.sleep_for_cycle = [p](std::size_t c) {
    const double t = now_s();
    if (c >= p->hook.size()) return 0.0;
    HookRec& h = p->hook[c];
    h.seen = true;
    h.t_analysis = t;
    const scale::State mean = p->sys->ensemble().mean();
    h.finite = !mean.has_nonfinite();
    h.rmse = refl_rmse(*p->sys, mean);
    if (c == kDigestCycle || c + 1 == p->hook.size())
      p->digests[c] = state_digest(mean);
    h.check_s = now_s() - t;
    return 0.0;
  };
  rig->t_driver0 = now_s();
  rig->driver = std::make_unique<workflow::PipelinedDriver>(*rig->sys, pcfg,
                                                            &rig->metrics);
  return rig;
}

}  // namespace

void run_rapid_refresh(const Args& args, Result& r) {
  run_closed(kRapidRefresh, args, r);
}

void run_sharded_30s(const Args& args, Result& r) {
  run_closed(kSharded30s, args, r);
}

void run_products(const Args& args, Result& r) {
  const Spec& spec = kProducts;
  const std::size_t n = cycles_for(spec, args.seconds);

  std::vector<double> setup_times;
  std::unique_ptr<ProductsRig> rig;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rig.reset();
    const double t0 = now_s();
    rig = setup_products(spec, args.seed, n);
    setup_times.push_back(now_s() - t0);
  }
  const double cpu0 = process_cpu_s();
  const double t_run0 = now_s();
  const auto results = rig->driver->run(n);  // one run(): cycle ids 0..n-1
  const double t_run1 = now_s();
  rig->driver->drain();
  const double t_drain1 = now_s();
  const bool drained = rig->serving->finish();
  const double cpu1 = process_cpu_s();
  print_digests(spec.name, args.seed, "main", rig->digests);

  auto records = rig->driver->products();
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.cycle < b.cycle; });
  const double off = rig->t_driver0;  // ProductRecord clock -> now_s()

  // Output checks.
  r.check(drained, "publisher did not drain");
  r.check(results.size() == n, "driver returned " +
                                   std::to_string(results.size()) + " cycles");
  RunningStats an_rmse;
  for (std::size_t c = 0; c < results.size(); ++c) {
    const auto& h = rig->hook[c];
    an_rmse.add(h.rmse);
    r.check(h.seen && h.finite && results[c].analysis.n_eig_fail == 0 &&
                results[c].n_obs > 0,
            "cycle " + std::to_string(c) + ": analysis check failed");
  }
  const auto want_maps = static_cast<std::size_t>(
      std::floor(kForecastLeadS / kForecastOutEveryS + 0.5) + 1);
  for (const auto& p : records)
    r.check(p.n_maps == want_maps,
            "product " + std::to_string(p.cycle) + " has " +
                std::to_string(p.n_maps) + " maps");
  tally_serving(*rig->serving, r);

  // t_an: analysis done; t_handoff: the hook's checks done, so the
  // driver goes on to admission and the publisher.
  std::map<std::uint64_t, double> t_an, t_handoff;
  for (std::size_t c = 0; c < n; ++c) {
    const HookRec& h = rig->hook[c];
    if (!h.seen) continue;
    t_an[c] = h.t_analysis;
    t_handoff[c] = h.t_analysis + h.check_s;
  }
  const auto hit = rig->serving->first_hit_times();
  std::vector<double> analysis_tts, product_tts, served_tts, forecast, admit;
  std::size_t ontime = 0;
  for (const auto& p : records) {
    const double t_obs = p.t_obs_s + off;
    const double check_s = rig->hook[p.cycle].check_s;
    if (t_an.count(p.cycle)) analysis_tts.push_back(t_an[p.cycle] - t_obs);
    const double tts = p.tts_s - check_s;
    product_tts.push_back(tts);
    forecast.push_back(p.t_done_s - p.t_admit_s);
    admit.push_back(p.t_admit_s - p.t_obs_s - check_s);
    if (hit.count(p.cycle))
      served_tts.push_back(hit.at(p.cycle) - t_obs - check_s);
    if (tts <= bar_s(spec) && !rig->serving->bad_cycles().count(p.cycle))
      ++ontime;
  }

  if (!args.trace) {
    const Tail at = tail_of(analysis_tts), pt = tail_of(product_tts);
    print_tail("analysis_tts_tail_s", at);
    print_tail("product_tts_tail_s", pt);
    std::printf("  forecasts launched %zu, dropped %zu; run %.2f s + drain "
                "%.2f s\n",
                rig->driver->launched(), rig->driver->dropped(),
                t_run1 - t_run0, t_drain1 - t_run1);
    r.set("setup_s", percentile(setup_times, 50.0), "s");
    r.set("analysis_tts_p50_s", percentile(analysis_tts, 50.0), "s");
    r.set("analysis_tts_tail_s", at.value, "s");
    r.set("analysis_rmse_dbz", an_rmse.mean(), "dBZ");
    r.set("product_tts_p50_s", percentile(product_tts, 50.0), "s");
    r.set("product_tts_tail_s", pt.value, "s");
    r.set("served_tts_p50_s", percentile(served_tts, 50.0), "s");
    r.set("product_ontime_frac", double(ontime) / double(n), "1");
    r.set("cpu_s_per_cycle", (cpu1 - cpu0) / double(n), "s");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Spans of the traced run, rebuilt from the program's records and the
  // hook's timestamps after the run.
  Trace trace;
  const double t_trace0 = now_s();
  const int run_span = trace.add("driver.run", t_run0, t_run1, -1);
  trace.add("driver.drain", t_run1, t_drain1, -1);
  for (const auto& p : records) {
    const long c = static_cast<long>(p.cycle);
    if (t_an.count(p.cycle)) {
      trace.add("scan_to_analysis", p.t_obs_s + off, t_an[p.cycle], c,
                run_span);
      trace.add("analysis_check", t_an[p.cycle], t_handoff[p.cycle], c,
                run_span);
    }
    trace.add("admit_wait", p.t_obs_s + off, p.t_admit_s + off, c, run_span);
    const int f = trace.add("forecast", p.t_admit_s + off, p.t_done_s + off,
                            c, run_span);
    trace.count(f, "maps", double(p.n_maps));
  }
  const double trace_s = now_s() - t_trace0;
  const auto& m = rig->metrics;
  const auto p50 = [&](const char* name) { return m.percentile(name, 50.0); };
  std::vector<double> period;
  for (auto it = std::next(t_an.begin()); it != t_an.end(); ++it)
    period.push_back(it->second - std::prev(it)->second);

  r.set("scale.advance_s", p50("cycle.ensemble"), "s");
  r.set("scale.member_cell_steps_per_s",
        cycle_cell_steps(spec, *rig->sys) / p50("cycle.ensemble"), "1/s");
  r.set("scale.omp_efficiency", 0.0, "1");
  r.set("scale.forecast_s", percentile(forecast, 50.0), "s");
  r.set("scale.world_s", p50("cycle.nature") + p50("cycle.observe"), "s");
  r.set("letkf.analysis_s", p50("cycle.letkf"), "s");
  analysis_counts(results, m.total("cycle.letkf"), r);
  r.set("pawr.regrid_s", p50("cycle.regrid"), "s");
  r.set("jitdt.transfer_s", p50("cycle.jitdt"), "s");
  r.set("hpc.advance_s", 0.0, "s");
  r.set("hpc.analyze_s", 0.0, "s");
  r.set("hpc.shuffle_bytes_per_cycle", 0.0, "B");
  r.set("hpc.peak_mailbox", 0.0, "count");
  r.set("hpc.sharding_speedup", 0.0, "1");
  r.set("workflow.admit_wait_s", percentile(admit, 50.0), "s");
  r.set("workflow.cycle_period_s", percentile(period, 50.0), "s");
  r.set("workflow.launched", double(rig->driver->launched()), "count");
  r.set("workflow.dropped", double(rig->driver->dropped()), "count");
  serving_layer(*rig->serving, t_handoff, r);
  r.set("serve.superseded", double(rig->serving->publisher().superseded()),
        "count");
  r.set("util.metrics_samples_per_cycle", metrics_samples(m) / double(n),
        "count");
  r.set("trace.overhead_frac",
        trace_s / double(n) / percentile(analysis_tts, 50.0), "1");

  report_trace(trace, args, spec.name);
}

}  // namespace perfbench
