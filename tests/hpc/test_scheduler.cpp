#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "hpc/scheduler.hpp"

namespace bda::hpc {
namespace {

// One forecast admission every `interval_s` from t = 0: the part <2>
// cadence the operational system and OperationSimulator drive the pool at.
std::vector<GroupAdmission> admit_cycles(RotatingGroupPool& pool,
                                         const std::vector<double>& runtimes,
                                         double interval_s = 30.0) {
  std::vector<GroupAdmission> adms;
  for (std::size_t c = 0; c < runtimes.size(); ++c)
    adms.push_back(pool.admit(double(c) * interval_s, runtimes[c]));
  return adms;
}

std::size_t count_dropped(const std::vector<GroupAdmission>& adms) {
  std::size_t dropped = 0;
  for (const auto& a : adms)
    if (!a.admitted) ++dropped;
  return dropped;
}

TEST(RotatingGroupPool, PaperConfigurationNeverDrops) {
  // 4 groups x 30-s stagger covers the 120-s runtime exactly: one product
  // forecast per 30 s, as in the operational deployment.
  RotatingGroupPool pool(4);
  const auto adms = admit_cycles(pool, std::vector<double>(200, 120.0));
  for (std::size_t c = 0; c < adms.size(); ++c) {
    ASSERT_TRUE(adms[c].admitted) << "cycle " << c;
    // Starts on arrival, completes exactly runtime later.
    EXPECT_DOUBLE_EQ(adms[c].t_start, 30.0 * double(c));
    EXPECT_DOUBLE_EQ(adms[c].t_done - adms[c].t_start, 120.0);
  }
}

TEST(RotatingGroupPool, GroupsRotateRoundRobin) {
  RotatingGroupPool pool(4);
  const auto adms = admit_cycles(pool, std::vector<double>(12, 120.0));
  for (std::size_t c = 4; c < adms.size(); ++c)
    EXPECT_EQ(adms[c].group, adms[c - 4].group);
}

TEST(RotatingGroupPool, UndersizedPoolDrops) {
  // 2 groups cannot sustain a 120-s runtime every 30 s: half the cycles
  // find no free group.
  RotatingGroupPool pool(2);
  const auto adms = admit_cycles(pool, std::vector<double>(100, 120.0));
  const std::size_t dropped = count_dropped(adms);
  EXPECT_GT(dropped, 40u);
  EXPECT_LT(dropped, 60u);
}

TEST(RotatingGroupPool, ShortRuntimeLeavesGroupsIdle) {
  RotatingGroupPool pool(4);
  const auto adms = admit_cycles(pool, std::vector<double>(50, 25.0));
  EXPECT_EQ(count_dropped(adms), 0u);
  // Only one group ever busy at a time.
  EXPECT_EQ(pool.peak_busy(), 1);
}

TEST(RotatingGroupPool, PeakBoundedByPool) {
  RotatingGroupPool pool(4);
  admit_cycles(pool, std::vector<double>(100, 119.0));
  EXPECT_LE(pool.peak_busy(), pool.n_groups());
}

TEST(RotatingGroupPool, VariableRuntimesHandled) {
  // Rain-dependent runtimes: some cycles run long; the rotation absorbs
  // moderate excursions without dropping everything.
  std::vector<double> runtimes(60, 110.0);
  for (std::size_t c = 20; c < 24; ++c) runtimes[c] = 125.0;  // heavy rain
  RotatingGroupPool pool(4);
  EXPECT_LE(count_dropped(admit_cycles(pool, runtimes)), 4u);
}

TEST(RotatingGroupPool, DroppedJobsHaveNoGroup) {
  RotatingGroupPool pool(1);
  const auto adms = admit_cycles(pool, std::vector<double>(10, 120.0));
  ASSERT_GT(count_dropped(adms), 0u);
  for (const auto& a : adms)
    if (!a.admitted) {
      EXPECT_EQ(a.group, -1);
      EXPECT_DOUBLE_EQ(a.t_done, 0.0);
    }
}

// Regression for the peak-occupancy accounting bug: occupancy used to be
// sampled only after successful assignments, skipping the drop branch —
// the one branch where the partition is by definition saturated.  A drop
// must register full occupancy, both in the admission record and in
// peak_busy().
TEST(RotatingGroupPool, DropRecordsFullPartitionOccupancy) {
  RotatingGroupPool pool(4);  // every group sticks for ages
  const auto adms = admit_cycles(pool, std::vector<double>(10, 1000.0));
  bool saw_drop = false;
  for (const auto& a : adms) {
    if (!a.admitted) {
      saw_drop = true;
      EXPECT_EQ(a.busy_before, 4);  // saturation, observed
    } else {
      EXPECT_GE(a.busy_before, 0);
      EXPECT_LT(a.busy_before, 4);
    }
  }
  ASSERT_TRUE(saw_drop);
  EXPECT_EQ(pool.peak_busy(), 4);
}

TEST(RotatingGroupPool, SingleGroupDropPeaksAtOneGroup) {
  // With one group and a long runtime, every cycle after the first drops;
  // the peak is exactly one group — never zero (the pre-fix behavior when
  // the only admission happened at zero occupancy).
  RotatingGroupPool pool(1);
  const auto adms = admit_cycles(pool, std::vector<double>(5, 10000.0));
  EXPECT_TRUE(adms[0].admitted);
  EXPECT_EQ(adms[0].busy_before, 0);
  for (std::size_t c = 1; c < adms.size(); ++c) {
    EXPECT_FALSE(adms[c].admitted);
    EXPECT_EQ(adms[c].busy_before, 1);  // the single group == saturation
  }
  EXPECT_EQ(pool.peak_busy(), 1);
}

TEST(RotatingGroupPool, AdmitsToEarliestFreeGroup) {
  RotatingGroupPool pool(3);
  const auto a = pool.admit(0.0, 100.0);
  const auto b = pool.admit(10.0, 50.0);
  const auto c = pool.admit(20.0, 50.0);
  EXPECT_TRUE(a.admitted && b.admitted && c.admitted);
  EXPECT_NE(a.group, b.group);
  EXPECT_NE(b.group, c.group);
  EXPECT_NE(a.group, c.group);
  // Group b frees at 60, c at 70, a at 100: next job takes b's group.
  const auto d = pool.admit(65.0, 10.0);
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(d.group, b.group);
  EXPECT_DOUBLE_EQ(d.t_start, 65.0);
}

TEST(RotatingGroupPool, ZeroWaitDropsWhenSaturated) {
  RotatingGroupPool pool(2, 0.0);
  EXPECT_TRUE(pool.admit(0.0, 100.0).admitted);
  EXPECT_TRUE(pool.admit(0.0, 100.0).admitted);
  const auto adm = pool.admit(1.0, 100.0);
  EXPECT_FALSE(adm.admitted);
  EXPECT_EQ(adm.group, -1);
  EXPECT_EQ(adm.busy_before, 2);  // saturation observed on the drop path
  EXPECT_EQ(pool.peak_busy(), 2);
}

TEST(RotatingGroupPool, WaitBudgetQueuesInsteadOfDropping) {
  RotatingGroupPool pool(1, 15.0);
  EXPECT_TRUE(pool.admit(0.0, 100.0).admitted);
  // Frees at 100: a job ready at 90 queues 10 s (within budget)...
  const auto q = pool.admit(90.0, 10.0);
  EXPECT_TRUE(q.admitted);
  EXPECT_DOUBLE_EQ(q.t_start, 100.0);
  EXPECT_DOUBLE_EQ(q.t_done, 110.0);
  // ...but one ready at 94 (16 s before the next free instant) is dropped.
  EXPECT_FALSE(pool.admit(94.0, 10.0).admitted);
}

TEST(RotatingGroupPool, ResetForgetsOccupancy) {
  RotatingGroupPool pool(2);
  pool.admit(0.0, 50.0);
  pool.admit(0.0, 50.0);
  EXPECT_EQ(pool.peak_busy(), 2);
  pool.reset();
  EXPECT_EQ(pool.peak_busy(), 0);
  EXPECT_EQ(pool.busy_at(10.0), 0);
  EXPECT_TRUE(pool.admit(0.0, 1.0).admitted);
}

}  // namespace
}  // namespace bda::hpc
