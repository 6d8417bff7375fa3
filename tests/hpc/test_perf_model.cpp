#include <gtest/gtest.h>

#include "hpc/perf_model.hpp"

namespace bda::hpc {
namespace {

BdaCostModel reference_model() {
  return BdaCostModel(reference_calibration(), FugakuSpec{});
}

TEST(CostModel, ForecastScalesLinearlyInWork) {
  const auto m = reference_model();
  const double t1 = m.t_forecast(1000000, 10, 100, 1000);
  EXPECT_NEAR(m.t_forecast(2000000, 10, 100, 1000), 2 * t1, 1e-9);
  EXPECT_NEAR(m.t_forecast(1000000, 20, 100, 1000), 2 * t1, 1e-9);
  EXPECT_NEAR(m.t_forecast(1000000, 10, 200, 1000), 2 * t1, 1e-9);
  EXPECT_NEAR(m.t_forecast(1000000, 10, 100, 2000), 0.5 * t1, 1e-9);
}

TEST(CostModel, LetkfGrowsWithEnsembleAndObs) {
  const auto m = reference_model();
  const double base = m.t_letkf(100000, 100, 100, 1000);
  EXPECT_GT(m.t_letkf(100000, 200, 100, 1000), 2 * base);  // k^2..k^3
  EXPECT_GT(m.t_letkf(100000, 100, 400, 1000), base);      // more obs
  EXPECT_NEAR(m.t_letkf(200000, 100, 100, 1000), 2 * base, 1e-9);
}

TEST(CostModel, TransferOverheadPlusBandwidth) {
  EXPECT_DOUBLE_EQ(BdaCostModel::t_transfer(1e9, 1e9, 2.0), 3.0);
  EXPECT_DOUBLE_EQ(BdaCostModel::t_transfer(0.0, 1e9, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(BdaCostModel::t_file(4e9, 2e9, 0.5), 2.5);
}

TEST(CostModel, PaperScaleProjectionInRightRegime) {
  // With the documented scaling defaults, the projected component times
  // must land in the paper's regime: <1-1> LETKF ~ O(10 s) on 8008 nodes,
  // <2> 30-min 11-member forecast ~ O(2 min) on 880 nodes, and the <1-2>
  // cycle forecast must fit within the 30-s interval.
  const auto m = reference_model();
  const std::size_t cells = 256ull * 256ull * 60ull;
  const double t_letkf = m.t_letkf(cells / 2, 1000, 600, 8008);
  const double t_fcst30min = m.t_forecast(cells, 11, 4500, 880);
  const double t_fcst30s = m.t_forecast(cells, 1000, 75, 8008);
  EXPECT_GT(t_letkf, 1.0);
  EXPECT_LT(t_letkf, 60.0);
  EXPECT_GT(t_fcst30min, 45.0);
  EXPECT_LT(t_fcst30min, 300.0);
  EXPECT_LT(t_fcst30s, 30.0) << "cycle forecast must fit in the interval";
}

TEST(Calibration, ReferenceValuesPositive) {
  const auto cal = reference_calibration();
  EXPECT_GT(cal.model_cells_per_s, 0.0);
  EXPECT_GT(cal.letkf_points_per_s, 0.0);
  EXPECT_GT(cal.letkf_k0, 0u);
}

TEST(Calibration, HostMeasurementRunsAndIsSane) {
  // This actually measures the kernels (sub-second by construction).
  const auto cal = calibrate_host();
  EXPECT_GT(cal.model_cells_per_s, 1e4);
  EXPECT_LT(cal.model_cells_per_s, 1e10);
  EXPECT_GT(cal.letkf_points_per_s, 10.0);
}

}  // namespace
}  // namespace bda::hpc
