#include "config/sim_config.h"

#include <gtest/gtest.h>

#include "util/units.h"

namespace rofs::config {
namespace {

StatusOr<SimConfig> Build(const std::string& text) {
  ROFS_ASSIGN_OR_RETURN(const ConfigFile file, ParseConfig(text));
  return BuildSimConfig(file);
}

TEST(SimConfigTest, DefaultsMatchThePaperSetup) {
  auto sim = Build("[workload]\nbuiltin = SC\n");
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  EXPECT_EQ(sim->disk.disks.size(), 8u);
  EXPECT_EQ(sim->disk.layout, disk::LayoutKind::kStriped);
  EXPECT_EQ(sim->disk.stripe_unit_bytes, 24u * 1024);
  EXPECT_EQ(sim->workload.name, "SC");
  EXPECT_NE(sim->policy_label.find("restricted-buddy"), std::string::npos);
  // The factory produces a working allocator.
  auto allocator = sim->allocator_factory(1 << 20);
  ASSERT_NE(allocator, nullptr);
  EXPECT_EQ(allocator->free_du(), 1u << 20);
}

TEST(SimConfigTest, DiskSectionOverrides) {
  auto sim = Build(R"(
[disk]
disks = 4
cylinders = 800
layout = raid5
stripe_unit = 48K
[workload]
builtin = TP
)");
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  EXPECT_EQ(sim->disk.disks.size(), 4u);
  EXPECT_EQ(sim->disk.disks[0].cylinders, 800u);
  EXPECT_EQ(sim->disk.layout, disk::LayoutKind::kRaid5);
  EXPECT_EQ(sim->disk.stripe_unit_bytes, 48u * 1024);
}

TEST(SimConfigTest, EveryPolicyKindBuilds) {
  for (const char* policy :
       {"kind = buddy", "kind = restricted-buddy\nblock_sizes = 1K,8K",
        "kind = extent\nranges = 512K,16M\nfit = best-fit",
        "kind = fixed\nblock = 16K", "kind = log\nsegment = 512K"}) {
    const std::string text = std::string("[policy]\n") + policy +
                             "\n[workload]\nbuiltin = TS\n";
    auto sim = Build(text);
    ASSERT_TRUE(sim.ok()) << policy << ": " << sim.status().ToString();
    auto allocator = sim->allocator_factory(1 << 20);
    ASSERT_NE(allocator, nullptr) << policy;
    alloc::FileAllocState f;
    f.pref_extent_du = 64;
    allocator->OnCreateFile(&f);
    EXPECT_TRUE(allocator->Extend(&f, 100).ok()) << policy;
  }
}

TEST(SimConfigTest, UnknownPolicyRejected) {
  auto sim = Build("[policy]\nkind = slab\n[workload]\nbuiltin = TS\n");
  EXPECT_FALSE(sim.ok());
  EXPECT_NE(sim.status().message().find("slab"), std::string::npos);
}

TEST(SimConfigTest, CustomFileTypes) {
  auto sim = Build(R"(
[filetype mail]
files = 100
users = 4
rw_bytes = 4K
initial = 6KB
read = 0.5
write = 0.2
extend = 0.2
delete_ratio = 0.9
access = random
[filetype log]
files = 2
extend = 0.9
read = 0.05
write = 0
initial = 10MB
)");
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  ASSERT_EQ(sim->workload.types.size(), 2u);
  const auto& mail = sim->workload.types[0];
  EXPECT_EQ(mail.name, "mail");
  EXPECT_EQ(mail.num_files, 100u);
  EXPECT_EQ(mail.rw_bytes_mean, 4096u);
  EXPECT_EQ(mail.initial_bytes_mean, 6000u);
  EXPECT_EQ(mail.access, workload::AccessPattern::kRandom);
  EXPECT_DOUBLE_EQ(mail.delete_ratio, 0.9);
  EXPECT_EQ(sim->workload.types[1].initial_bytes_mean, 10'000'000u);
}

TEST(SimConfigTest, InvalidFileTypeRatiosRejected) {
  auto sim = Build("[filetype bad]\nread = 0.9\nwrite = 0.5\n");
  EXPECT_FALSE(sim.ok());
}

TEST(SimConfigTest, NoWorkloadRejected) {
  auto sim = Build("[disk]\ndisks = 8\n");
  EXPECT_FALSE(sim.ok());
}

TEST(SimConfigTest, TestSelectionParsing) {
  auto sim = Build("[test]\nrun = alloc,seq\n[workload]\nbuiltin = TS\n");
  ASSERT_TRUE(sim.ok());
  EXPECT_TRUE(sim->tests.allocation);
  EXPECT_FALSE(sim->tests.application);
  EXPECT_TRUE(sim->tests.sequential);

  auto bad = Build("[test]\nrun = nothing\n[workload]\nbuiltin = TS\n");
  EXPECT_FALSE(bad.ok());
}

TEST(SimConfigTest, ExperimentKnobs) {
  auto sim = Build(R"(
[test]
seed = 99
sample_interval = 5s
warmup = 1s
max_measure = 2m
fill_lower = 0.8
fill_upper = 0.85
[workload]
builtin = TP
)");
  ASSERT_TRUE(sim.ok());
  EXPECT_EQ(sim->experiment.seed, 99u);
  EXPECT_DOUBLE_EQ(sim->experiment.sample_interval_ms, 5000.0);
  EXPECT_DOUBLE_EQ(sim->experiment.warmup_ms, 1000.0);
  EXPECT_DOUBLE_EQ(sim->experiment.max_measure_ms, 120000.0);
  EXPECT_DOUBLE_EQ(sim->experiment.fill_lower, 0.8);
  EXPECT_DOUBLE_EQ(sim->experiment.fill_upper, 0.85);
}

TEST(SimConfigTest, SchedulerDefaultsToFcfs) {
  auto sim = Build("[workload]\nbuiltin = TS\n");
  ASSERT_TRUE(sim.ok());
  EXPECT_EQ(sim->disk.scheduler.policy, sched::Policy::kFcfs);
  EXPECT_TRUE(sim->disk.scheduler.predictable());
}

TEST(SimConfigTest, SchedulerKeyParses) {
  auto sim = Build(R"(
[disk]
scheduler = sstf
[workload]
builtin = TP
)");
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  EXPECT_EQ(sim->disk.scheduler.policy, sched::Policy::kSstf);

  auto batch = Build(R"(
[disk]
scheduler = batch(4)
[workload]
builtin = TP
)");
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->disk.scheduler.policy, sched::Policy::kBatch);
  EXPECT_EQ(batch->disk.scheduler.batch_limit, 4u);
}

TEST(SimConfigTest, UnknownSchedulerRejected) {
  auto sim = Build(R"(
[disk]
scheduler = elevator
[workload]
builtin = TP
)");
  ASSERT_FALSE(sim.ok());
  EXPECT_NE(sim.status().message().find("[disk]"), std::string::npos);
  EXPECT_NE(sim.status().message().find("unknown scheduler policy"),
            std::string::npos);
}

TEST(SimConfigTest, ZeroBatchBoundRejected) {
  auto sim = Build(R"(
[disk]
scheduler = batch(0)
[workload]
builtin = TP
)");
  ASSERT_FALSE(sim.ok());
  EXPECT_NE(sim.status().message().find("positive batch bound"),
            std::string::npos);
}

TEST(SimConfigTest, CacheSectionDefaults) {
  auto sim = Build("[workload]\nbuiltin = SC\n");
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  EXPECT_EQ(sim->experiment.fs_options.cache_policy.kind,
            fs::CachePolicyKind::kLru);
  EXPECT_EQ(sim->experiment.fs_options.readahead_pages, 0u);
  EXPECT_EQ(sim->experiment.fs_options.writeback_dirty_max, 0u);
}

TEST(SimConfigTest, CacheSectionParses) {
  for (const char* policy : {"lru", "clock", "2q", "arc"}) {
    const std::string text = std::string(R"(
[fs]
cache = 4M
[cache]
policy = )") + policy + R"(
readahead_pages = 8
writeback_dirty_max = 64
[workload]
builtin = TS
)";
    auto sim = Build(text);
    ASSERT_TRUE(sim.ok()) << policy << ": " << sim.status().ToString();
    EXPECT_EQ(sim->experiment.fs_options.cache_policy.Label(), policy);
    EXPECT_EQ(sim->experiment.fs_options.readahead_pages, 8u);
    EXPECT_EQ(sim->experiment.fs_options.writeback_dirty_max, 64u);
  }
}

TEST(SimConfigTest, UnknownCachePolicyRejected) {
  auto sim = Build(R"(
[fs]
cache = 4M
[cache]
policy = mru
[workload]
builtin = TS
)");
  ASSERT_FALSE(sim.ok());
  EXPECT_NE(sim.status().message().find("[cache] unknown cache policy"),
            std::string::npos);
}

TEST(SimConfigTest, NegativeCacheKnobsRejected) {
  for (const char* key : {"readahead_pages", "writeback_dirty_max"}) {
    const std::string text = std::string("[fs]\ncache = 4M\n[cache]\n") +
                             key + " = -1\n[workload]\nbuiltin = TS\n";
    auto sim = Build(text);
    ASSERT_FALSE(sim.ok()) << key;
    EXPECT_NE(sim.status().message().find("must be >= 0"), std::string::npos)
        << key;
  }
}

TEST(SimConfigTest, CacheKnobsRequireTheCache) {
  // The config builds (the keys parse fine); the experiment's validation
  // rejects the combination at Run() time.
  for (const char* key : {"readahead_pages", "writeback_dirty_max"}) {
    const std::string text = std::string("[fs]\ncache = 0\n[cache]\n") + key +
                             " = 4\n[workload]\nbuiltin = TS\n";
    auto sim = Build(text);
    ASSERT_TRUE(sim.ok()) << key << ": " << sim.status().ToString();
    const Status invalid = sim->experiment.Validate();
    ASSERT_FALSE(invalid.ok()) << key;
    EXPECT_NE(invalid.message().find("requires the buffer cache"),
              std::string::npos)
        << key;
  }
}

TEST(SimConfigTest, RemovedSimSectionRejected) {
  // The sharded engine and the timer wheel were removed; a config that
  // still asks for them must fail instead of silently running the heap.
  for (const char* key : {"threads = 1", "user_timer = wheel",
                          "wheel_tick = 1ms"}) {
    const std::string text =
        std::string("[sim]\n") + key + "\n[workload]\nbuiltin = TS\n";
    auto sim = Build(text);
    ASSERT_FALSE(sim.ok()) << key;
    EXPECT_TRUE(sim.status().IsInvalidArgument()) << key;
    for (const char* removed : {"threads", "user_timer", "wheel_tick"}) {
      EXPECT_NE(sim.status().message().find(removed), std::string::npos)
          << key << ": " << sim.status().ToString();
    }
  }
}

TEST(SimConfigTest, ShippedConfigsLoad) {
  for (const char* path :
       {"configs/paper_ts_rbuddy.ini", "configs/custom_smallfiles_lfs.ini",
        "configs/tp_cscan.ini", "configs/aging_fixed4k.ini",
        "configs/ts_openloop_poisson.ini"}) {
    auto sim = LoadSimConfig(std::string(ROFS_SOURCE_DIR) + "/" + path);
    EXPECT_TRUE(sim.ok()) << path << ": " << sim.status().ToString();
  }
}

}  // namespace
}  // namespace rofs::config
