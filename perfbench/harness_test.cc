// Tests of the benchmark harness on tiny cells: the boundary hook and the
// allocator decorator must not change a run's simulated results, the
// set-up boundary must split every run, the speed probe must time both
// phases and scale them, and every metric name must be one the benchmark
// contract accepts.

#include <algorithm>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/fixed_block_allocator.h"
#include "harness.h"
#include "sched/scheduler.h"
#include "sim/event_queue.h"
#include "util/units.h"
#include "workload/workloads.h"

namespace rofs::perfbench {
namespace {

/// A cell that fills and measures in milliseconds of host time: a few TP
/// relations on two 100-cylinder drives under `policy`.
Case TinyCase(const char* policy) {
  Case c;
  c.workload =
      workload::MakeWorkload(workload::WorkloadKind::kTransactionProcessing);
  for (workload::FileTypeSpec& type : c.workload.types) {
    type.num_files = std::max<uint32_t>(1, type.num_files / 5);
    type.initial_bytes_mean /= 40;
    type.initial_bytes_dev /= 40;
    type.num_users = 4;
  }
  c.factory = [](uint64_t total_du) {
    return std::unique_ptr<alloc::Allocator>(
        std::make_unique<alloc::FixedBlockAllocator>(total_du, 16));
  };
  c.disk = disk::DiskSystemConfig::Array(2);
  for (disk::DiskGeometry& g : c.disk.disks) g.cylinders = 100;
  c.disk.scheduler = *sched::ParseSchedulerSpec(policy);
  c.config.warmup_ms = 1'000;
  c.config.min_measure_ms = c.config.max_measure_ms = 5'000;
  return c;
}

/// The same cell run bare: no boundary hook, no decorator.
std::string BareDigest(const Case& c) {
  exp::Experiment experiment(c.workload, c.factory, c.disk, c.config);
  const uint64_t before = sim::RetiredDispatchedEvents();
  StatusOr<exp::PerfResult> app = experiment.RunApplicationTest();
  EXPECT_TRUE(app.ok()) << app.status().ToString();
  if (!app.ok()) return "";
  return Digest({*app}, sim::RetiredDispatchedEvents() - before);
}

class HarnessTest : public ::testing::TestWithParam<const char*> {};

TEST_P(HarnessTest, HookAndDecoratorLeaveDigestIdentical) {
  const Case c = TinyCase(GetParam());
  const RunResult untraced = RunOnce(c, /*traced=*/false);
  const RunResult traced = RunOnce(c, /*traced=*/true);
  ASSERT_TRUE(untraced.status.ok()) << untraced.status.ToString();
  ASSERT_TRUE(traced.status.ok()) << traced.status.ToString();
  EXPECT_TRUE(untraced.check_failures.empty());
  EXPECT_TRUE(traced.check_failures.empty())
      << traced.check_failures.front();
  EXPECT_GT(untraced.measured_ops, 0u);
  EXPECT_EQ(untraced.digest, BareDigest(c));
  EXPECT_EQ(traced.digest, untraced.digest);
}

TEST_P(HarnessTest, BoundarySplitsTheRun) {
  const Case c = TinyCase(GetParam());
  for (const bool traced : {false, true}) {
    const RunResult run = RunOnce(c, traced);
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    EXPECT_GT(run.setup_s, 0.0);
    EXPECT_LT(run.setup_s, run.wall_s);
  }
}

TEST_P(HarnessTest, ProbeTimesEveryPhaseAndScalesIt) {
  const Case c = TinyCase(GetParam());
  const RunResult run = RunOnce(c, /*traced=*/false);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_GT(run.setup_probe_s, 0.0);
  EXPECT_GT(run.measure_probe_s, 0.0);
  const std::vector<Metric> metrics = EndToEndMetrics(run, PeakRssMib());
  auto value = [&metrics](const std::string& name) {
    for (const Metric& m : metrics) {
      if (m.name == name) return m.value;
    }
    ADD_FAILURE() << "no metric " << name;
    return 0.0;
  };
  const double setup = run.setup_s * kProbeReferenceS / run.setup_probe_s;
  const double measure = (run.wall_s - run.setup_s) * kProbeReferenceS /
                         run.measure_probe_s;
  EXPECT_DOUBLE_EQ(value("setup_s"), setup);
  EXPECT_DOUBLE_EQ(value("wall_s"), setup + measure);
  EXPECT_DOUBLE_EQ(value("measure_ops_per_s"),
                   static_cast<double>(run.measured_ops) / measure);
}

// FCFS runs the generator's sync path; C-SCAN reorders, so it runs the
// async path.
INSTANTIATE_TEST_SUITE_P(Schedulers, HarnessTest,
                         ::testing::Values("fcfs", "cscan"));

TEST(SpeedProbeTest, RunsTakeTime) {
  SpeedProbe probe;
  for (int i = 0; i < 3; ++i) EXPECT_GT(probe.Run(), 0.0);
}

TEST(HarnessNamesTest, EveryMetricNameIsValidAndUnique) {
  const Case c = TinyCase("cscan");
  const RunResult untraced = RunOnce(c, /*traced=*/false);
  const RunResult traced = RunOnce(c, /*traced=*/true);
  ASSERT_TRUE(traced.status.ok());
  const std::regex kName("[A-Za-z0-9_.-]+");
  std::set<std::string> seen;
  for (const std::vector<Metric>& metrics :
       {EndToEndMetrics(untraced, PeakRssMib()),
        LayerMetrics(traced, untraced)}) {
    for (const Metric& m : metrics) {
      EXPECT_TRUE(std::regex_match(m.name, kName)) << m.name;
      EXPECT_FALSE(m.unit.empty()) << m.name;
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
    }
  }
}

}  // namespace
}  // namespace rofs::perfbench
