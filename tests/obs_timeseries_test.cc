#include "obs/timeseries.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/restricted_buddy.h"
#include "exp/experiment.h"
#include "exp/run_record.h"
#include "stats/steady.h"
#include "util/units.h"

namespace rofs {
namespace {

TEST(WindowSeriesTest, AppendAndLookup) {
  obs::WindowSeries s;
  s.AddColumn("ops");
  s.AddColumn("hits");
  s.Reserve(4);
  EXPECT_TRUE(s.empty());

  const double r0[] = {10.0, 3.0};
  const double r1[] = {12.0, 5.0};
  s.Append(100.0, r0);
  s.Append(200.0, r1);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_EQ(s.num_columns(), 2u);
  EXPECT_EQ(s.column_name(1), "hits");
  ASSERT_NE(s.Find("ops"), nullptr);
  EXPECT_DOUBLE_EQ((*s.Find("ops"))[1], 12.0);
  EXPECT_EQ(s.Find("missing"), nullptr);
  EXPECT_DOUBLE_EQ(s.times()[0], 100.0);

  s.PrefixColumns("app.");
  EXPECT_EQ(s.column_name(0), "app.ops");
  EXPECT_NE(s.Find("app.hits"), nullptr);
}

TEST(SteadyDetectTest, FlatSeriesIsSteadyImmediately) {
  std::vector<double> flat(16, 100.0);
  // Identical blocks: zero-width CIs that trivially overlap.
  EXPECT_EQ(stats::DetectSteadyWindow(flat, 4), 0);
}

TEST(SteadyDetectTest, RampThenFlatDetectsTheKnee) {
  // Ramp 10..80 over 8 windows, then flat with tiny jitter. Block
  // length 6: long enough that a block straddling the ramp separates
  // from the flat one (with k <= 4 a linear ramp's within-block spread
  // grows with its slope, so adjacent CIs always just barely overlap).
  std::vector<double> v;
  for (int i = 0; i < 8; ++i) v.push_back(10.0 * (i + 1));
  for (int i = 0; i < 12; ++i) v.push_back(100.0 + (i % 2 ? 0.5 : -0.5));
  const int onset = stats::DetectSteadyWindow(v, 6);
  ASSERT_GE(onset, 0);
  // The detector cannot fire while the leading block is mostly ramp.
  EXPECT_GE(onset, 3);
  EXPECT_LE(onset, 8);
}

TEST(SteadyDetectTest, MonotoneRampNeverSettles) {
  std::vector<double> ramp;
  for (int i = 0; i < 24; ++i) ramp.push_back(10.0 * i);
  EXPECT_EQ(stats::DetectSteadyWindow(ramp, 6), -1);
}

TEST(SteadyDetectTest, ShortSeriesAndSmallBlocksAreRejected) {
  std::vector<double> v(3, 1.0);
  EXPECT_EQ(stats::DetectSteadyWindow(v, 2), -1);   // n < 2k.
  EXPECT_EQ(stats::DetectSteadyWindow(v, 1), -1);   // k < 2.
  EXPECT_EQ(stats::SteadyBlockLength(4), 2u);
  EXPECT_EQ(stats::SteadyBlockLength(20), 5u);
  EXPECT_EQ(stats::SteadyBlockLength(1000), 8u);
}

TEST(SteadyDetectTest, NoisyStationarySeriesSettles) {
  // Deterministic bounded noise around a constant level.
  std::vector<double> v;
  for (int i = 0; i < 20; ++i) {
    v.push_back(50.0 + ((i * 7919) % 11) - 5.0);
  }
  EXPECT_GE(stats::DetectSteadyWindow(v, 5), 0);
}

exp::ExperimentConfig WindowedConfig(double window_ms) {
  exp::ExperimentConfig cfg;
  cfg.sample_interval_ms = 2'000;
  cfg.warmup_ms = 2'000;
  cfg.min_measure_ms = 6'000;
  cfg.max_measure_ms = 20'000;
  cfg.stable_tolerance_pp = 1.0;
  cfg.obs.metrics = true;
  cfg.obs.window_ms = window_ms;
  return cfg;
}

exp::Experiment MakeTinyExperiment(const exp::ExperimentConfig& cfg) {
  disk::DiskSystemConfig disk = disk::DiskSystemConfig::Array(2);
  for (auto& g : disk.disks) g.cylinders = 200;

  workload::WorkloadSpec w;
  w.name = "tiny";
  workload::FileTypeSpec t;
  t.name = "small";
  t.num_files = 200;
  t.num_users = 6;
  t.process_time_ms = 20;
  t.hit_frequency_ms = 20;
  t.rw_bytes_mean = KiB(8);
  t.extend_bytes_mean = KiB(8);
  t.truncate_bytes = KiB(8);
  t.initial_bytes_mean = KiB(64);
  t.initial_bytes_dev = KiB(16);
  t.read_ratio = 0.6;
  t.write_ratio = 0.2;
  t.extend_ratio = 0.15;
  t.delete_ratio = 0.5;
  w.types.push_back(t);

  return exp::Experiment(
      w,
      [](uint64_t total_du) -> std::unique_ptr<alloc::Allocator> {
        alloc::RestrictedBuddyConfig rb;
        rb.block_sizes_du = {1, 8, 64, 1024};
        return std::make_unique<alloc::RestrictedBuddyAllocator>(total_du,
                                                                 rb);
      },
      disk, cfg);
}

TEST(WindowedMetricsTest, MeasurementProducesConsistentWindows) {
  exp::Experiment e = MakeTinyExperiment(WindowedConfig(1'000));
  auto result = e.RunApplicationTest();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const obs::WindowSeries& s = result->series;
  ASSERT_FALSE(s.empty());
  // One row per elapsed window of the measurement phase.
  EXPECT_NEAR(static_cast<double>(s.rows()), result->measured_ms / 1'000,
              1.0);
  const std::vector<double>* ops = s.Find("ops");
  ASSERT_NE(ops, nullptr);
  // Window deltas of the op counter must sum to the ops measured.
  double total = 0;
  for (double v : *ops) total += v;
  EXPECT_LE(total, static_cast<double>(result->ops_executed));
  EXPECT_GT(total, 0.0);
  // Window end times are evenly spaced by window_ms.
  for (size_t i = 1; i < s.rows(); ++i) {
    EXPECT_NEAR(s.times()[i] - s.times()[i - 1], 1'000, 1e-9);
  }
  // The steady-state verdict is stamped as a metric.
  bool found = false;
  for (const auto& [name, value] : result->obs_metrics) {
    if (name == "steady.window") {
      found = true;
      EXPECT_GE(value, -1.0);
      EXPECT_LT(value, static_cast<double>(s.rows()));
    }
  }
  EXPECT_TRUE(found);
}

TEST(WindowedMetricsTest, SeriesRidesIntoRecordJsonAndCsv) {
  exp::Experiment e = MakeTinyExperiment(WindowedConfig(2'000));
  auto result = e.RunApplicationTest();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  exp::RunRecord r = result->ToRecord();
  r.experiment = "test";
  r.cell = "cell";
  EXPECT_NE(r.ToJson().find("\"series\":{\"t_ms\":["), std::string::npos);

  const std::string csv = exp::SeriesToCsv({r});
  EXPECT_NE(csv.find("experiment,cell,replicate,seed,t_ms,"), std::string::npos);
  // One line per window plus the header.
  size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, r.series.rows() + 1);

  // Without a window the record serializes with no series key at all.
  exp::ExperimentConfig cfg = WindowedConfig(0);
  cfg.obs.window_ms = 0;
  exp::Experiment plain = MakeTinyExperiment(cfg);
  auto plain_result = plain.RunApplicationTest();
  ASSERT_TRUE(plain_result.ok());
  EXPECT_EQ(plain_result->ToRecord().ToJson().find("\"series\""),
            std::string::npos);
}

}  // namespace
}  // namespace rofs
