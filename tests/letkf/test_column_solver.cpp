#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include "letkf/column_solver.hpp"
#include "letkf/letkf_core.hpp"
#include "util/rng.hpp"

namespace bda::letkf {
namespace {

// One synthetic "level": p local obs with ids, perturbations Y (p x k),
// innovations d and localized inverse variances rinv.
struct Level {
  std::vector<std::size_t> ids;
  std::vector<float> y, d, rinv;
  std::size_t p() const { return ids.size(); }
};

Level make_level(std::size_t k, std::size_t p, std::uint64_t seed,
                 std::size_t id0 = 0) {
  Rng rng(seed);
  Level lv;
  lv.ids.resize(p);
  lv.y.resize(p * k);
  lv.d.resize(p);
  lv.rinv.resize(p);
  for (std::size_t n = 0; n < p; ++n) {
    lv.ids[n] = id0 + n;
    lv.d[n] = float(rng.normal());
    lv.rinv[n] = 0.5f + float(std::abs(rng.normal()));
    for (std::size_t m = 0; m < k; ++m)
      lv.y[n * k + m] = float(rng.normal());
  }
  return lv;
}

constexpr float kAlpha = 0.95f;
constexpr float kRho = 1.0f;

TEST(ColumnWeightSolver, IdenticalSignaturesShareOneSlot) {
  const std::size_t k = 12, p = 9;
  const Level lv = make_level(k, p, 42);
  ColumnWeightSolver<float> solver(k, 8, kAlpha, kRho);

  solver.begin_column();
  const std::size_t s0 = solver.add_level(p, lv.ids.data(), lv.rinv.data(),
                                          lv.y.data(), lv.d.data());
  // Second level with the byte-identical signature: must hit without
  // touching Y/d (pass nullptrs through lookup to prove they're unused).
  const std::size_t s1 = solver.lookup(p, lv.ids.data(), lv.rinv.data());
  ASSERT_NE(s1, ColumnWeightSolver<float>::npos);
  EXPECT_EQ(s0, s1);
  EXPECT_EQ(solver.n_levels(), 2u);
  EXPECT_EQ(solver.n_unique(), 1u);
  EXPECT_EQ(solver.cache_hits(), 1u);
  EXPECT_EQ(solver.cache_misses(), 1u);

  ASSERT_TRUE(solver.converged(s0));
  // Shared slot => literally the same weight matrix storage.
  EXPECT_EQ(solver.weights(s0), solver.weights(s1));
}

TEST(ColumnWeightSolver, MatchesPerLevelLetkfWeightsBitwise) {
  // A column mixing shared and distinct signatures; every level's weights
  // must equal a standalone letkf_weights call bit for bit.
  const std::size_t k = 16;
  std::vector<Level> levels;
  levels.push_back(make_level(k, 7, 1));
  levels.push_back(make_level(k, 11, 2, 100));
  levels.push_back(levels[0]);  // exact repeat of level 0
  levels.push_back(make_level(k, 7, 3, 50));
  levels.push_back(levels[1]);  // exact repeat of level 1

  ColumnWeightSolver<float> solver(k, levels.size(), kAlpha, kRho);
  solver.begin_column();
  std::vector<std::size_t> slots;
  for (const auto& lv : levels)
    slots.push_back(solver.add_level(lv.p(), lv.ids.data(), lv.rinv.data(),
                                     lv.y.data(), lv.d.data()));
  EXPECT_EQ(solver.n_unique(), 3u);
  EXPECT_EQ(solver.cache_hits(), 2u);

  LetkfWorkspace<float> ws(k);
  std::vector<float> w_ref(k * k);
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const auto& lv = levels[l];
    ASSERT_TRUE(solver.converged(slots[l])) << "level " << l;
    ASSERT_TRUE(letkf_weights(k, lv.p(), lv.y.data(), lv.d.data(),
                              lv.rinv.data(), kAlpha, kRho, ws,
                              w_ref.data()));
    const float* w = solver.weights(slots[l]);
    for (std::size_t x = 0; x < k * k; ++x)
      EXPECT_EQ(w[x], w_ref[x]) << "level " << l << " elem " << x;
  }
}

TEST(ColumnWeightSolver, LastUlpRinvDifferenceDefeatsReuse) {
  const std::size_t k = 8, p = 5;
  const Level lv = make_level(k, p, 7);
  auto rinv2 = lv.rinv;
  rinv2[p - 1] = std::nextafter(rinv2[p - 1], 2.0f * rinv2[p - 1]);

  ColumnWeightSolver<float> solver(k, 4, kAlpha, kRho);
  solver.begin_column();
  const std::size_t s0 = solver.add_level(p, lv.ids.data(), lv.rinv.data(),
                                          lv.y.data(), lv.d.data());
  EXPECT_EQ(solver.lookup(p, lv.ids.data(), rinv2.data()),
            ColumnWeightSolver<float>::npos);
  const std::size_t s1 = solver.add_level(p, lv.ids.data(), rinv2.data(),
                                          lv.y.data(), lv.d.data());
  EXPECT_NE(s0, s1);
  EXPECT_EQ(solver.n_unique(), 2u);
  EXPECT_EQ(solver.cache_hits(), 0u);
}

TEST(ColumnWeightSolver, DifferentObsSelectionDefeatsReuse) {
  const std::size_t k = 8, p = 5;
  const Level lv = make_level(k, p, 11);
  auto ids2 = lv.ids;
  ids2[0] += 1000;  // same count & rinv bits, different ranked obs

  ColumnWeightSolver<float> solver(k, 4, kAlpha, kRho);
  solver.begin_column();
  solver.add_level(p, lv.ids.data(), lv.rinv.data(), lv.y.data(),
                   lv.d.data());
  EXPECT_EQ(solver.lookup(p, ids2.data(), lv.rinv.data()),
            ColumnWeightSolver<float>::npos);
}

TEST(ColumnWeightSolver, NonConvergenceIsCountedNotSwallowed) {
  const std::size_t k = 10, p = 8;
  const Level lv = make_level(k, p, 5);
  // max_ql_iters = 0: any level needing QL sweeps fails deterministically.
  ColumnWeightSolver<float> solver(k, 4, kAlpha, kRho, /*max_ql_iters=*/0);
  solver.begin_column();
  const std::size_t s = solver.add_level(p, lv.ids.data(), lv.rinv.data(),
                                         lv.y.data(), lv.d.data());
  EXPECT_FALSE(solver.converged(s));
  EXPECT_EQ(solver.eig_failures(), 1u);
}

TEST(ColumnWeightSolver, BeginColumnResetsCacheButKeepsLifetimeCounters) {
  const std::size_t k = 8, p = 5;
  const Level lv = make_level(k, p, 13);
  ColumnWeightSolver<float> solver(k, 4, kAlpha, kRho);

  solver.begin_column();
  solver.add_level(p, lv.ids.data(), lv.rinv.data(), lv.y.data(),
                   lv.d.data());
  solver.lookup(p, lv.ids.data(), lv.rinv.data());

  // New column: the same signature must MISS (cache is per-column) while
  // hits/misses accumulate across columns.
  solver.begin_column();
  EXPECT_EQ(solver.n_levels(), 0u);
  EXPECT_EQ(solver.n_unique(), 0u);
  EXPECT_EQ(solver.lookup(p, lv.ids.data(), lv.rinv.data()),
            ColumnWeightSolver<float>::npos);
  solver.add_level(p, lv.ids.data(), lv.rinv.data(), lv.y.data(),
                   lv.d.data());
  EXPECT_EQ(solver.cache_hits(), 1u);
  EXPECT_EQ(solver.cache_misses(), 2u);
}

TEST(ColumnWeightSolver, WeightsReadableRightAfterInsertAndRepeatHitsSlotZero) {
  // Signature pattern A, B, A in one column: the third level must hit
  // slot 0, and each slot's weights are final as soon as insert() returns
  // (no later solve stage), bitwise equal to a per-level letkf_weights.
  const std::size_t k = 12;
  const Level a = make_level(k, 9, 21);
  const Level b = make_level(k, 6, 22, 200);
  ColumnWeightSolver<float> solver(k, 3, kAlpha, kRho);
  LetkfWorkspace<float> ws(k);
  std::vector<float> w_ref(k * k);
  auto expect_reference = [&](std::size_t slot, const Level& lv) {
    ASSERT_TRUE(solver.converged(slot));
    ASSERT_TRUE(letkf_weights(k, lv.p(), lv.y.data(), lv.d.data(),
                              lv.rinv.data(), kAlpha, kRho, ws,
                              w_ref.data()));
    const float* w = solver.weights(slot);
    for (std::size_t x = 0; x < k * k; ++x) EXPECT_EQ(w[x], w_ref[x]) << x;
  };

  solver.begin_column();
  ASSERT_EQ(solver.lookup(a.p(), a.ids.data(), a.rinv.data()),
            ColumnWeightSolver<float>::npos);
  const std::size_t sa = solver.insert(a.p(), a.ids.data(), a.rinv.data(),
                                       a.y.data(), a.d.data());
  EXPECT_EQ(sa, 0u);
  expect_reference(sa, a);

  ASSERT_EQ(solver.lookup(b.p(), b.ids.data(), b.rinv.data()),
            ColumnWeightSolver<float>::npos);
  const std::size_t sb = solver.insert(b.p(), b.ids.data(), b.rinv.data(),
                                       b.y.data(), b.d.data());
  EXPECT_EQ(sb, 1u);
  expect_reference(sb, b);

  EXPECT_EQ(solver.lookup(a.p(), a.ids.data(), a.rinv.data()), 0u);
  EXPECT_EQ(solver.n_levels(), 3u);
  EXPECT_EQ(solver.n_unique(), 2u);
  EXPECT_EQ(solver.cache_hits(), 1u);
  EXPECT_EQ(solver.cache_misses(), 2u);
  // Slot 0 is untouched by the later insert of B.
  expect_reference(sa, a);
}

}  // namespace
}  // namespace bda::letkf
