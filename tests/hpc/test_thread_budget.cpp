// Thread budget contract (hpc/thread_budget.hpp, docs/SHARDING.md).
//
// The process has one budget, OMP_NUM_THREADS: CommWorld ranks split the
// caller's budget (4 threads over 3 ranks: 2, 1, 1), every share is >= 1,
// the shares sum to the budget, and the guard that lends a share restores
// the caller's setting on every exit.
// Per-rank CPU accounting covers the rank's whole OpenMP team.
#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "hpc/comm.hpp"
#include "hpc/thread_budget.hpp"
#include "util/metrics.hpp"

namespace bda::hpc {
namespace {

// Every test sets its own budget; this restores the runner's afterwards.
class ThreadBudget : public ::testing::Test {
 protected:
  void TearDown() override { omp_set_num_threads(saved_); }
  int saved_ = omp_get_max_threads();
};

TEST_F(ThreadBudget, SharesAreAtLeastOneAndSumToTheBudget) {
  for (int total = 1; total <= 16; ++total)
    for (int n = 1; n <= 9; ++n) {
      int sum = 0, lo = total, hi = 0;
      for (int i = 0; i < n; ++i) {
        const int s = thread_share(total, n, i);
        EXPECT_GE(s, 1) << total << " over " << n;
        sum += s;
        lo = std::min(lo, s);
        hi = std::max(hi, s);
      }
      EXPECT_EQ(sum, std::max(total, n)) << total << " over " << n;
      EXPECT_LE(hi - lo, 1) << total << " over " << n;
    }
}

TEST_F(ThreadBudget, RanksSeeTheirShares) {
  struct Case {
    int total, ranks;
    std::vector<int> shares;
  };
  const Case cases[] = {{4, 3, {2, 1, 1}}, {4, 2, {2, 2}},
                        {8, 3, {3, 3, 2}}, {7, 4, {2, 2, 2, 1}},
                        {6, 1, {6}},       {1, 3, {1, 1, 1}}};
  for (const Case& c : cases) {
    omp_set_num_threads(c.total);
    CommWorld world(c.ranks);
    std::vector<int> seen(static_cast<std::size_t>(c.ranks), 0);
    std::vector<int> team(static_cast<std::size_t>(c.ranks), 0);
    world.run([&](Comm& comm) {
      const auto r = static_cast<std::size_t>(comm.rank());
      seen[r] = omp_get_max_threads();
#pragma omp parallel
      {
#pragma omp single
        team[r] = omp_get_num_threads();
      }
    });
    EXPECT_EQ(seen, c.shares) << c.total << " threads over " << c.ranks;
    EXPECT_EQ(team, c.shares) << c.total << " threads over " << c.ranks;
    // The split leaves the caller's own setting untouched.
    EXPECT_EQ(omp_get_max_threads(), c.total);
  }
}

TEST_F(ThreadBudget, ScopedBudgetRestoresOnReturnAndThrow) {
  omp_set_num_threads(3);
  {
    const ScopedThreadBudget guard(1);
    EXPECT_EQ(omp_get_max_threads(), 1);
  }
  EXPECT_EQ(omp_get_max_threads(), 3);
  EXPECT_THROW(
      {
        const ScopedThreadBudget guard(2);
        EXPECT_EQ(omp_get_max_threads(), 2);
        throw std::runtime_error("unwind");
      },
      std::runtime_error);
  EXPECT_EQ(omp_get_max_threads(), 3);
}

// Per-rank CPU accounting: at team 2 the rank's team CPU covers its own
// thread's CPU plus the worker's, so it is at least the rank thread's own.
TEST_F(ThreadBudget, TeamCpuCoversTheRanksWholeTeam) {
  omp_set_num_threads(4);
  CommWorld world(2);
  std::vector<double> team_cpu(2, 0.0), own_cpu(2, 0.0);
  std::vector<int> team_size(2, 0);
  world.run([&](Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    const double t0 = util::team_cpu_seconds();
    const double o0 = util::thread_cpu_seconds();
    // Equal busy work on each team thread (static schedule).
    std::vector<double> acc(2, 0.0);
#pragma omp parallel
    {
#pragma omp single
      team_size[r] = omp_get_num_threads();
#pragma omp for schedule(static)
      for (int t = 0; t < 2; ++t) {
        double a = 0;
        for (int i = 0; i < 20000000; ++i) a += std::sqrt(double(i + t));
        acc[static_cast<std::size_t>(t)] = a;
      }
    }
    own_cpu[r] = util::thread_cpu_seconds() - o0;
    team_cpu[r] = util::team_cpu_seconds() - t0;
    EXPECT_GT(acc[0] + acc[1], 0.0);
  });
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(team_size[r], 2) << "rank " << r;
    EXPECT_GE(team_cpu[r], own_cpu[r]) << "rank " << r;
    // The worker's half of the work shows up too.
    EXPECT_GT(team_cpu[r], 1.5 * own_cpu[r]) << "rank " << r;
  }
}

}  // namespace
}  // namespace bda::hpc
