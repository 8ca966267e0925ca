#include "exp/experiment.h"

#include <memory>

#include <gtest/gtest.h>

#include "alloc/extent_allocator.h"
#include "alloc/fixed_block_allocator.h"
#include "alloc/restricted_buddy.h"
#include "exp/reporting.h"
#include "util/units.h"

namespace rofs::exp {
namespace {

// A scaled-down system (2 disks x 200 cylinders ~ 84 MB) and workload so
// integration tests finish in milliseconds.
disk::DiskSystemConfig TinyDisk() {
  disk::DiskSystemConfig cfg = disk::DiskSystemConfig::Array(2);
  for (auto& g : cfg.disks) g.cylinders = 200;
  return cfg;
}

workload::WorkloadSpec TinyWorkload() {
  workload::WorkloadSpec w;
  w.name = "tiny";
  workload::FileTypeSpec small;
  small.name = "small";
  small.num_files = 400;
  small.num_users = 6;
  small.process_time_ms = 20;
  small.hit_frequency_ms = 20;
  small.rw_bytes_mean = KiB(8);
  small.extend_bytes_mean = KiB(8);
  small.truncate_bytes = KiB(8);
  small.initial_bytes_mean = KiB(64);
  small.initial_bytes_dev = KiB(16);
  small.read_ratio = 0.55;
  small.write_ratio = 0.15;
  small.extend_ratio = 0.20;
  small.delete_ratio = 0.5;
  w.types.push_back(small);
  workload::FileTypeSpec big;
  big.name = "big";
  big.num_files = 6;
  big.num_users = 4;
  big.process_time_ms = 40;
  big.hit_frequency_ms = 40;
  big.rw_bytes_mean = KiB(64);
  big.extend_bytes_mean = KiB(256);
  big.truncate_bytes = KiB(256);
  big.initial_bytes_mean = MiB(5);
  big.initial_bytes_dev = MiB(1);
  big.alloc_size_bytes = KiB(512);
  big.read_ratio = 0.60;
  big.write_ratio = 0.25;
  big.extend_ratio = 0.10;
  w.types.push_back(big);
  return w;
}

ExperimentConfig FastConfig() {
  ExperimentConfig cfg;
  cfg.sample_interval_ms = 2'000;
  cfg.warmup_ms = 2'000;
  cfg.min_measure_ms = 6'000;
  cfg.max_measure_ms = 30'000;
  cfg.seq_min_measure_ms = 6'000;
  cfg.seq_max_measure_ms = 60'000;
  cfg.stable_tolerance_pp = 1.0;
  return cfg;
}

Experiment::AllocatorFactory RestrictedBuddyFactory() {
  return [](uint64_t total_du) -> std::unique_ptr<alloc::Allocator> {
    alloc::RestrictedBuddyConfig cfg;
    cfg.block_sizes_du = {1, 8, 64, 1024};
    return std::make_unique<alloc::RestrictedBuddyAllocator>(total_du, cfg);
  };
}

TEST(ExperimentTest, AllocationTestEndsAtDiskFull) {
  Experiment e(TinyWorkload(), RestrictedBuddyFactory(), TinyDisk(),
               FastConfig());
  auto result = e.RunAllocationTest();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->utilization, 0.85);
  EXPECT_GE(result->internal_fragmentation, 0.0);
  EXPECT_LT(result->internal_fragmentation, 0.30);
  EXPECT_GE(result->external_fragmentation, 0.0);
  EXPECT_LT(result->external_fragmentation, 0.15);
  EXPECT_GT(result->ops_executed, 0u);
  EXPECT_GT(result->avg_extents_per_file, 0.9);
}

TEST(ExperimentTest, AllocationTestDeterministicForSeed) {
  Experiment e1(TinyWorkload(), RestrictedBuddyFactory(), TinyDisk(),
                FastConfig());
  Experiment e2(TinyWorkload(), RestrictedBuddyFactory(), TinyDisk(),
                FastConfig());
  auto r1 = e1.RunAllocationTest();
  auto r2 = e2.RunAllocationTest();
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_DOUBLE_EQ(r1->internal_fragmentation, r2->internal_fragmentation);
  EXPECT_DOUBLE_EQ(r1->external_fragmentation, r2->external_fragmentation);
  EXPECT_EQ(r1->ops_executed, r2->ops_executed);
}

TEST(ExperimentTest, PerformancePairProducesSaneThroughput) {
  Experiment e(TinyWorkload(), RestrictedBuddyFactory(), TinyDisk(),
               FastConfig());
  auto pair = e.RunPerformancePair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  EXPECT_GT(pair->application.utilization_of_max, 0.0);
  EXPECT_LE(pair->application.utilization_of_max, 1.05);
  EXPECT_GT(pair->sequential.utilization_of_max, 0.0);
  EXPECT_LE(pair->sequential.utilization_of_max, 1.05);
  // Whole-file sequential transfers beat small random application ops.
  EXPECT_GT(pair->sequential.utilization_of_max,
            pair->application.utilization_of_max);
  EXPECT_GT(pair->application.ops_executed, 0u);
  EXPECT_GT(pair->sequential.bytes_moved, 0u);
}

TEST(ExperimentTest, ExtentPolicyRunsEndToEnd) {
  auto factory = [](uint64_t total_du) -> std::unique_ptr<alloc::Allocator> {
    alloc::ExtentAllocatorConfig cfg;
    cfg.range_means_du = {64, 512};
    return std::make_unique<alloc::ExtentAllocator>(total_du, cfg);
  };
  Experiment e(TinyWorkload(), factory, TinyDisk(), FastConfig());
  auto alloc_result = e.RunAllocationTest();
  ASSERT_TRUE(alloc_result.ok()) << alloc_result.status().ToString();
  EXPECT_GT(alloc_result->utilization, 0.85);
  auto perf = e.RunApplicationTest();
  ASSERT_TRUE(perf.ok()) << perf.status().ToString();
  EXPECT_GT(perf->utilization_of_max, 0.0);
}

TEST(ExperimentTest, FixedBlockBaselineSlowerSequentialThanRestrictedBuddy) {
  auto fixed_factory =
      [](uint64_t total_du) -> std::unique_ptr<alloc::Allocator> {
    return std::make_unique<alloc::FixedBlockAllocator>(total_du, 4);
  };
  Experiment fixed(TinyWorkload(), fixed_factory, TinyDisk(), FastConfig());
  Experiment rb(TinyWorkload(), RestrictedBuddyFactory(), TinyDisk(),
                FastConfig());
  auto fixed_pair = fixed.RunPerformancePair();
  auto rb_pair = rb.RunPerformancePair();
  ASSERT_TRUE(fixed_pair.ok() && rb_pair.ok());
  // The headline claim: contiguous multiblock allocation beats the aged
  // fixed-block system on sequential throughput.
  EXPECT_GT(rb_pair->sequential.utilization_of_max,
            fixed_pair->sequential.utilization_of_max);
}

// Keeps the suite name it had beside the deleted engine comparisons, so
// its test id is unchanged.
TEST(IntraRunDeterminismTest, CapacityMetricsAreRecorded) {
  Experiment experiment(TinyWorkload(), RestrictedBuddyFactory(), TinyDisk(),
                        FastConfig());
  auto perf = experiment.RunApplicationTest();
  ASSERT_TRUE(perf.ok()) << perf.status().ToString();

  // 6 + 4 users across the two file types. Every user starts as one
  // pending heap event, so the heap peak is at least the user count.
  EXPECT_EQ(perf->users_peak, 10u);
  EXPECT_GE(perf->events_peak, 10u);

  const RunRecord record = perf->ToRecord();
  EXPECT_EQ(record.Get("sim.users.peak"), 10.0);
  EXPECT_EQ(record.Get("sim.events.peak"),
            static_cast<double>(perf->events_peak));
  // The timer wheel is gone, and so is every metric that described it.
  for (const auto& [name, value] : record.metrics) {
    EXPECT_EQ(name.find("wheel"), std::string::npos) << name;
  }

  // FromRecord round-trips the capacity metrics.
  const PerfResult back = PerfResult::FromRecord(record);
  EXPECT_EQ(back.users_peak, perf->users_peak);
  EXPECT_EQ(back.events_peak, perf->events_peak);
}

TEST(ExperimentConfigTest, DefaultConfigValidates) {
  EXPECT_TRUE(ExperimentConfig{}.Validate().ok());
}

TEST(ExperimentConfigTest, ValidateRejectsBadValues) {
  {
    ExperimentConfig c;
    c.fill_lower = 0.0;
    EXPECT_FALSE(c.Validate().ok());
  }
  {
    ExperimentConfig c;
    c.fill_lower = 0.9;
    c.fill_upper = 0.8;  // Band inverted.
    EXPECT_FALSE(c.Validate().ok());
  }
  {
    ExperimentConfig c;
    c.fill_upper = 1.5;  // Above full.
    EXPECT_FALSE(c.Validate().ok());
  }
  {
    ExperimentConfig c;
    c.sample_interval_ms = 0;
    EXPECT_FALSE(c.Validate().ok());
  }
  {
    ExperimentConfig c;
    c.stable_tolerance_pp = -0.1;
    EXPECT_FALSE(c.Validate().ok());
  }
  {
    ExperimentConfig c;
    c.stable_samples = 0;
    EXPECT_FALSE(c.Validate().ok());
  }
  {
    ExperimentConfig c;
    c.warmup_ms = -1;
    EXPECT_FALSE(c.Validate().ok());
  }
  {
    ExperimentConfig c;
    c.max_measure_ms = c.min_measure_ms / 2;  // Window inverted.
    EXPECT_FALSE(c.Validate().ok());
  }
  {
    ExperimentConfig c;
    c.seq_min_measure_ms = 0;
    EXPECT_FALSE(c.Validate().ok());
  }
  {
    ExperimentConfig c;
    c.alloc_full_utilization = 0.0;
    EXPECT_FALSE(c.Validate().ok());
  }
  {
    ExperimentConfig c;
    c.max_alloc_test_ops = 0;
    EXPECT_FALSE(c.Validate().ok());
  }
  {
    ExperimentConfig c;
    c.seed = 0;
    EXPECT_FALSE(c.Validate().ok());
  }
}

TEST(ExperimentConfigTest, InvalidConfigFailsTheRunWithInvalidArgument) {
  ExperimentConfig config;
  config.seed = 0;
  Experiment experiment(
      TinyWorkload(),
      [](uint64_t total_du) -> std::unique_ptr<alloc::Allocator> {
        return std::make_unique<alloc::FixedBlockAllocator>(total_du, 4);
      },
      TinyDisk(), config);
  const auto result = experiment.RunAllocationTest();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ReportingTest, PctFormats) {
  EXPECT_EQ(Pct(0.884), "88.4%");
  EXPECT_EQ(Pct(0.0), "0.0%");
  EXPECT_EQ(Pct(1.0), "100.0%");
}

TEST(ReportingTest, SummariesMentionKeyNumbers) {
  AllocationResult ar;
  ar.internal_fragmentation = 0.431;
  ar.external_fragmentation = 0.134;
  const std::string s = Summarize(ar);
  EXPECT_NE(s.find("43.1%"), std::string::npos);
  EXPECT_NE(s.find("13.4%"), std::string::npos);
  PerfResult pr;
  pr.utilization_of_max = 0.88;
  pr.stabilized = true;
  EXPECT_NE(Summarize(pr).find("88.0%"), std::string::npos);
}

}  // namespace
}  // namespace rofs::exp
