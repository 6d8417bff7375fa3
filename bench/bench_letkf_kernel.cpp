// Microbench of the LETKF weight kernel: per-gridpoint baseline vs the
// column solver (exact per-column weight reuse).
//
// The paper's cycle spends its analysis time in per-gridpoint k x k
// eigensolves, and adjacent levels of a column frequently share the exact
// local-obs signature, letting one weight matrix serve several levels.
// This bench measures that at the reference point — k = 64 members,
// 60-level columns, ~96 local obs — on two workloads:
//   * "reuse":    adjacent level pairs share a bit-identical signature
//                 (the single-elevation / quantized-vloc scenario), so the
//                 cache hits 50% of levels;
//   * "distinct": every level unique — the floor, where the column solver
//                 can only cost its signature bookkeeping.
// Every column-solver weight matrix is checked bitwise against the
// per-level letkf_weights reference before any timing is reported.
//
// Output: human-readable table + BENCH_letkf_kernel.json (path overridable
// as argv[1]) with timers and kernel counters, CI-archived next to
// BENCH_pipeline_tts.json.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "letkf/column_solver.hpp"
#include "letkf/letkf_core.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace {

using bda::Rng;
using bda::letkf::ColumnWeightSolver;
using bda::letkf::LetkfWorkspace;
using bda::letkf::letkf_weights;

constexpr std::size_t kMembers = 64;   // k
constexpr std::size_t kLevels = 60;    // levels per column
constexpr std::size_t kLocalObs = 96;  // p
constexpr std::size_t kColumns = 8;
constexpr int kReps = 3;
constexpr float kAlpha = 0.7f;
constexpr float kRho = 1.0f;

struct Level {
  std::vector<std::size_t> ids;
  std::vector<float> y, d, rinv;
};

struct Column {
  std::vector<Level> levels;
};

Level make_level(Rng& rng, std::size_t id0) {
  Level lv;
  lv.ids.resize(kLocalObs);
  lv.y.resize(kLocalObs * kMembers);
  lv.d.resize(kLocalObs);
  lv.rinv.resize(kLocalObs);
  for (std::size_t n = 0; n < kLocalObs; ++n) {
    lv.ids[n] = id0 + n;
    lv.d[n] = float(rng.normal());
    lv.rinv[n] = 0.25f + float(std::abs(rng.normal()));
    for (std::size_t m = 0; m < kMembers; ++m)
      lv.y[n * kMembers + m] = float(rng.normal());
  }
  return lv;
}

/// `share` pairs adjacent levels into one signature (50% exact reuse);
/// otherwise all levels are distinct.
std::vector<Column> make_workload(bool share, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Column> cols(kColumns);
  for (auto& col : cols) {
    col.levels.reserve(kLevels);
    for (std::size_t l = 0; l < kLevels; ++l) {
      if (share && (l % 2 == 1))
        col.levels.push_back(col.levels.back());
      else
        col.levels.push_back(make_level(rng, l * kLocalObs));
    }
  }
  return cols;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-gridpoint baseline: one full letkf_weights per level, no reuse.  Like the real driver, the
/// weight matrix is produced into a reused buffer and consumed in place;
/// `sink` non-null switches to per-level output capture (verification).
double run_baseline(const std::vector<Column>& cols, float* sink) {
  LetkfWorkspace<float> ws(kMembers);
  std::vector<float> w(kMembers * kMembers);
  const double t0 = now_s();
  std::size_t out = 0;
  for (const auto& col : cols)
    for (const auto& lv : col.levels) {
      float* dst = sink ? sink + out * kMembers * kMembers : w.data();
      if (!letkf_weights(kMembers, kLocalObs, lv.y.data(), lv.d.data(),
                         lv.rinv.data(), kAlpha, kRho, ws, dst))
        std::abort();  // SPD inputs: non-convergence here is a bench bug
      ++out;
    }
  return now_s() - t0;
}

/// Column solver path: each level looks its signature up in the column's
/// cache and solves only on a miss.  Weights are consumed in place (as
/// Letkf::analyze does); `sink` non-null copies each level's matrix out for
/// the bitwise verification pass.
double run_column_solver(const std::vector<Column>& cols, float* sink,
                         ColumnWeightSolver<float>& solver) {
  const double t0 = now_s();
  std::size_t out = 0;
  for (const auto& col : cols) {
    solver.begin_column();
    for (const auto& lv : col.levels) {
      const std::size_t slot = solver.add_level(
          kLocalObs, lv.ids.data(), lv.rinv.data(), lv.y.data(), lv.d.data());
      if (!solver.converged(slot)) std::abort();
      const float* src = solver.weights(slot);
      if (sink)
        std::copy(src, src + kMembers * kMembers,
                  sink + out * kMembers * kMembers);
      ++out;
    }
  }
  return now_s() - t0;
}

std::size_t count_mismatch(const std::vector<float>& a,
                           const std::vector<float>& b) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) ++bad;
  return bad;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_letkf_kernel.json";

  std::printf("\n=====================================================\n");
  std::printf("LETKF weight kernel: column solver vs per-level baseline\n");
  std::printf("  k = %zu members, %zu-level columns, p = %zu local obs,\n",
              kMembers, kLevels, kLocalObs);
  std::printf("  %zu columns x %d reps; exact per-column weight reuse\n",
              kColumns, kReps);
  std::printf("=====================================================\n");

  bda::util::Metrics metrics;
  const std::size_t n_w = kColumns * kLevels * kMembers * kMembers;
  std::vector<float> w_base(n_w), w_col(n_w);

  struct WorkloadResult {
    const char* name;
    double base_s, col_s, hit_rate;
  };
  std::vector<WorkloadResult> results;

  for (const bool share : {true, false}) {
    const char* name = share ? "reuse" : "distinct";
    const auto cols = make_workload(share, share ? 20210729u : 20210730u);
    ColumnWeightSolver<float> solver(kMembers, kLevels, kAlpha, kRho);

    // Warmup both paths (page in the workload), then correctness gate.
    run_baseline(cols, w_base.data());
    run_column_solver(cols, w_col.data(), solver);
    const std::size_t bad = count_mismatch(w_base, w_col);
    if (bad != 0) {
      std::printf("FAIL [%s]: %zu weight elements differ from the serial "
                  "reference (bitwise contract broken)\n",
                  name, bad);
      return 1;
    }

    double base_s = 0, col_s = 0;
    for (int r = 0; r < kReps; ++r) {
      const double tb = run_baseline(cols, nullptr);
      const double tk = run_column_solver(cols, nullptr, solver);
      base_s += tb;
      col_s += tk;
      metrics.observe(std::string("letkf_kernel.baseline_s.") + name, tb);
      metrics.observe(std::string("letkf_kernel.column_s.") + name, tk);
    }
    const double levels_seen = double(solver.cache_hits() +
                                      solver.cache_misses());
    const double hit_rate =
        levels_seen > 0 ? double(solver.cache_hits()) / levels_seen : 0.0;
    metrics.count(std::string("letkf_kernel.cache_hit.") + name,
                  solver.cache_hits());
    metrics.count(std::string("letkf_kernel.cache_miss.") + name,
                  solver.cache_misses());
    metrics.observe(std::string("letkf_kernel.speedup.") + name,
                    base_s / col_s);
    results.push_back({name, base_s, col_s, hit_rate});
  }

  std::printf("\n%-10s %12s %12s %9s %9s\n", "workload", "baseline[s]",
              "column[s]", "speedup", "hit-rate");
  bool pass = true;
  for (const auto& r : results) {
    const double speedup = r.base_s / r.col_s;
    std::printf("%-10s %12.4f %12.4f %8.2fx %8.0f%%\n", r.name, r.base_s,
                r.col_s, speedup, 100.0 * r.hit_rate);
    if (std::string(r.name) == "reuse" && speedup < 1.5) pass = false;
  }
  std::printf("\nbitwise check: column-solver weights == per-level "
              "reference (all %zu matrices)\n", 2 * kColumns * kLevels);
  std::printf("acceptance (reuse >= 1.50x): %s\n", pass ? "PASS" : "FAIL");

  std::ofstream json(json_path);
  json << metrics.to_json() << "\n";
  std::printf("metrics -> %s\n", json_path.c_str());
  return pass ? 0 : 1;
}
