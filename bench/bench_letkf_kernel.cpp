// Microbench of the LETKF weight kernel: per-gridpoint baseline vs the
// column solver (exact per-column weight reuse), and the Gram build vs the
// naive triple loop it replaced.
//
// The paper's cycle spends its analysis time in per-gridpoint k x k
// eigensolves, and adjacent levels of a column frequently share the exact
// local-obs signature, letting one weight matrix serve several levels.
// Three workloads:
//   * "reuse":    k = 64, 60-level columns, ~96 local obs; adjacent level
//                 pairs share a bit-identical signature (the
//                 single-elevation / quantized-vloc scenario), so the
//                 cache hits 50% of levels;
//   * "distinct": the same shape with every level unique — the floor,
//                 where the column solver can only cost its signature
//                 bookkeeping;
//   * "dense":    the rapid_refresh shape — k = 16, 10-level columns, 600
//                 local obs per level, every level distinct — where the
//                 Gram build A = (k-1)/rho I + Y^T diag(rinv) Y dominates
//                 the solve; its letkf_build_gram time is also reported
//                 against the naive triple loop.
// Every column-solver weight matrix is checked bitwise against the
// per-level letkf_weights reference (and, on "dense", every Gram matrix
// against the naive loop) before any timing is reported.
//
// Gates: reuse >= 1.5x the per-gridpoint baseline; dense Gram build >= 3x
// the naive triple loop (median of alternating timing pairs).
//
// Output: human-readable table + BENCH_letkf_kernel.json (path overridable
// as argv[1]) with timers and kernel counters, CI-archived next to
// BENCH_pipeline_tts.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
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
using bda::letkf::letkf_build_gram;
using bda::letkf::letkf_weights;

constexpr int kReps = 3;
constexpr int kGramPairs = 5;  // naive / letkf_build_gram timing pairs
constexpr float kAlpha = 0.7f;
constexpr float kRho = 1.0f;

struct Shape {
  const char* name;
  std::size_t k, levels, p, columns;
  bool share;  ///< adjacent level pairs share one signature
  std::uint64_t seed;
};

constexpr Shape kShapes[] = {
    {"reuse", 64, 60, 96, 8, true, 20210729u},
    {"distinct", 64, 60, 96, 8, false, 20210730u},
    {"dense", 16, 10, 600, 40, false, 20210731u},
};

struct Level {
  std::vector<std::size_t> ids;
  std::vector<float> y, d, rinv;
};

struct Column {
  std::vector<Level> levels;
};

Level make_level(const Shape& sh, Rng& rng, std::size_t id0) {
  Level lv;
  lv.ids.resize(sh.p);
  lv.y.resize(sh.p * sh.k);
  lv.d.resize(sh.p);
  lv.rinv.resize(sh.p);
  for (std::size_t n = 0; n < sh.p; ++n) {
    lv.ids[n] = id0 + n;
    lv.d[n] = float(rng.normal());
    lv.rinv[n] = 0.25f + float(std::abs(rng.normal()));
    for (std::size_t m = 0; m < sh.k; ++m)
      lv.y[n * sh.k + m] = float(rng.normal());
  }
  return lv;
}

std::vector<Column> make_workload(const Shape& sh) {
  Rng rng(sh.seed);
  std::vector<Column> cols(sh.columns);
  for (auto& col : cols) {
    col.levels.reserve(sh.levels);
    for (std::size_t l = 0; l < sh.levels; ++l) {
      if (sh.share && (l % 2 == 1))
        col.levels.push_back(col.levels.back());
      else
        col.levels.push_back(make_level(sh, rng, l * sh.p));
    }
  }
  return cols;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-gridpoint baseline: one full letkf_weights per level, no reuse.
/// Like the real driver, the weight matrix is produced into a reused buffer
/// and consumed in place; `sink` non-null switches to per-level output
/// capture (verification).
double run_baseline(const Shape& sh, const std::vector<Column>& cols,
                    float* sink) {
  const std::size_t kk = sh.k * sh.k;
  LetkfWorkspace<float> ws(sh.k);
  std::vector<float> w(kk);
  const double t0 = now_s();
  std::size_t out = 0;
  for (const auto& col : cols)
    for (const auto& lv : col.levels) {
      float* dst = sink ? sink + out * kk : w.data();
      if (!letkf_weights(sh.k, sh.p, lv.y.data(), lv.d.data(),
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
double run_column_solver(const Shape& sh, const std::vector<Column>& cols,
                         float* sink, ColumnWeightSolver<float>& solver) {
  const std::size_t kk = sh.k * sh.k;
  const double t0 = now_s();
  std::size_t out = 0;
  for (const auto& col : cols) {
    solver.begin_column();
    for (const auto& lv : col.levels) {
      const std::size_t slot = solver.add_level(
          sh.p, lv.ids.data(), lv.rinv.data(), lv.y.data(), lv.d.data());
      if (!solver.converged(slot)) std::abort();
      const float* src = solver.weights(slot);
      if (sink) std::copy(src, src + kk, sink + out * kk);
      ++out;
    }
  }
  return now_s() - t0;
}

/// The naive Gram triple loop: one accumulator per entry over ascending n,
/// lower triangle mirrored.  letkf_build_gram must match it bitwise.
void naive_gram(std::size_t k, std::size_t p, const float* Y,
                const float* rinv, float rho, float* A) {
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = i; j < k; ++j) {
      float s = (i == j) ? float(k - 1) / rho : 0.0f;
      for (std::size_t n = 0; n < p; ++n)
        s += Y[n * k + i] * rinv[n] * Y[n * k + j];
      A[i * k + j] = s;
      A[j * k + i] = s;
    }
}

/// Gram matrices of every level, by `build` (naive_gram or
/// letkf_build_gram); `sink` as run_baseline.
template <typename Build>
double run_gram(const Shape& sh, const std::vector<Column>& cols,
                float* sink, Build build) {
  const std::size_t kk = sh.k * sh.k;
  std::vector<float> a(kk);
  const double t0 = now_s();
  std::size_t out = 0;
  for (const auto& col : cols)
    for (const auto& lv : col.levels) {
      build(sh.k, sh.p, lv.y.data(), lv.rinv.data(), kRho,
            sink ? sink + out * kk : a.data());
      ++out;
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
  for (const Shape& sh : kShapes)
    std::printf("  %-8s k = %3zu, %2zu-level columns x %2zu, p = %3zu%s\n",
                sh.name, sh.k, sh.levels, sh.columns, sh.p,
                sh.share ? ", level pairs shared" : "");
  std::printf("  %d reps; exact per-column weight reuse\n", kReps);
  std::printf("=====================================================\n");

  bda::util::Metrics metrics;

  struct WorkloadResult {
    const char* name;
    double base_s, col_s, hit_rate;
  };
  std::vector<WorkloadResult> results;
  std::size_t matrices = 0;
  double gram_naive_s = 0, gram_s = 0;
  std::vector<double> gram_ratios;

  for (const Shape& sh : kShapes) {
    const auto cols = make_workload(sh);
    const std::size_t n_w = sh.columns * sh.levels * sh.k * sh.k;
    std::vector<float> w_base(n_w), w_col(n_w);
    ColumnWeightSolver<float> solver(sh.k, sh.levels, kAlpha, kRho);

    // Warmup both paths (page in the workload), then correctness gate.
    run_baseline(sh, cols, w_base.data());
    run_column_solver(sh, cols, w_col.data(), solver);
    const std::size_t bad = count_mismatch(w_base, w_col);
    if (bad != 0) {
      std::printf("FAIL [%s]: %zu weight elements differ from the serial "
                  "reference (bitwise contract broken)\n",
                  sh.name, bad);
      return 1;
    }
    matrices += sh.columns * sh.levels;

    double base_s = 0, col_s = 0;
    for (int r = 0; r < kReps; ++r) {
      const double tb = run_baseline(sh, cols, nullptr);
      const double tk = run_column_solver(sh, cols, nullptr, solver);
      base_s += tb;
      col_s += tk;
      metrics.observe(std::string("letkf_kernel.baseline_s.") + sh.name, tb);
      metrics.observe(std::string("letkf_kernel.column_s.") + sh.name, tk);
    }
    const double levels_seen = double(solver.cache_hits() +
                                      solver.cache_misses());
    const double hit_rate =
        levels_seen > 0 ? double(solver.cache_hits()) / levels_seen : 0.0;
    metrics.count(std::string("letkf_kernel.cache_hit.") + sh.name,
                  solver.cache_hits());
    metrics.count(std::string("letkf_kernel.cache_miss.") + sh.name,
                  solver.cache_misses());
    metrics.observe(std::string("letkf_kernel.speedup.") + sh.name,
                    base_s / col_s);
    results.push_back({sh.name, base_s, col_s, hit_rate});

    if (std::string(sh.name) != "dense") continue;
    // Gram build vs the naive triple loop: bitwise first, then timing.
    const std::size_t n_a = sh.columns * sh.levels * sh.k * sh.k;
    std::vector<float> a_naive(n_a), a_new(n_a);
    run_gram(sh, cols, a_naive.data(), naive_gram);
    run_gram(sh, cols, a_new.data(), letkf_build_gram<float>);
    const std::size_t bad_a = count_mismatch(a_naive, a_new);
    if (bad_a != 0) {
      std::printf("FAIL [dense]: %zu Gram elements differ from the naive "
                  "triple loop (bitwise contract broken)\n",
                  bad_a);
      return 1;
    }
    // Alternating pairs; the gate reads the median per-pair ratio, so one
    // slow stretch of a shared host cannot sink it.
    for (int r = 0; r < kGramPairs; ++r) {
      const double tn = run_gram(sh, cols, nullptr, naive_gram);
      const double tg = run_gram(sh, cols, nullptr, letkf_build_gram<float>);
      gram_naive_s += tn;
      gram_s += tg;
      gram_ratios.push_back(tn / tg);
      metrics.observe("letkf_kernel.gram_naive_s.dense", tn);
      metrics.observe("letkf_kernel.gram_s.dense", tg);
    }
  }
  std::sort(gram_ratios.begin(), gram_ratios.end());
  const double gram_speedup = gram_ratios[gram_ratios.size() / 2];
  metrics.observe("letkf_kernel.gram_speedup.dense", gram_speedup);

  std::printf("\n%-10s %12s %12s %9s %9s\n", "workload", "baseline[s]",
              "column[s]", "speedup", "hit-rate");
  bool pass = true;
  for (const auto& r : results) {
    const double speedup = r.base_s / r.col_s;
    std::printf("%-10s %12.4f %12.4f %8.2fx %8.0f%%\n", r.name, r.base_s,
                r.col_s, speedup, 100.0 * r.hit_rate);
    if (std::string(r.name) == "reuse" && speedup < 1.5) pass = false;
  }
  std::printf("%-10s %12.4f %12.4f %8.2fx   (naive loop vs "
              "letkf_build_gram, median of %d pairs)\n",
              "gram", gram_naive_s, gram_s, gram_speedup, kGramPairs);
  const bool gram_pass = gram_speedup >= 3.0;
  std::printf("\nbitwise check: column-solver weights == per-level "
              "reference (all %zu matrices), dense Gram == naive loop\n",
              matrices);
  std::printf("acceptance (reuse >= 1.50x): %s\n", pass ? "PASS" : "FAIL");
  std::printf("acceptance (dense Gram build >= 3.00x): %s\n",
              gram_pass ? "PASS" : "FAIL");

  std::ofstream json(json_path);
  json << metrics.to_json() << "\n";
  std::printf("metrics -> %s\n", json_path.c_str());
  return pass && gram_pass ? 0 : 1;
}
