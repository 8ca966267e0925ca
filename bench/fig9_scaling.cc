// Figure 9 (extension): million-user state capacity. The paper's
// simulator keeps every pending event in one time-ordered heap (section
// 2.2), and so does this one: each closed-loop user is a single heap
// event that reschedules itself. This driver shows that a million
// mostly-idle users fit in that heap: a 10^6-user closed-loop
// application test on 16 drives under C-SCAN. Deterministic simulation
// results go to stdout; wall-clock seconds and peak RSS (VmHWM) go to
// stderr, where they can never perturb a golden.
//
// ROFS_FIG9_SMOKE=1 shrinks the cell to 10^4 users for CI: the smoke
// stdout is pinned with a golden.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench/common.h"
#include "sched/scheduler.h"
#include "workload/workloads.h"

using namespace rofs;

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set size of this process in KiB (VmHWM from
/// /proc/self/status), or -1 when unavailable (non-Linux).
long PeakRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::atol(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

/// The million-user cell: `users` closed-loop streams over 1024 2M
/// files on 16 drives. Think times are huge (1000 s) and start times
/// spread over users * 0.4 ms, so almost the whole population is idle
/// at any instant: one pending heap event per user.
workload::WorkloadSpec CapacityWorkload(uint32_t users) {
  workload::FileTypeSpec type;
  type.name = "capacity";
  type.num_files = 1024;
  type.num_users = users;
  type.process_time_ms = 1'000'000.0;
  type.hit_frequency_ms = 0.4;
  type.rw_bytes_mean = 8 * kKiB;
  type.alloc_size_bytes = 8 * kKiB;
  type.initial_bytes_mean = 2 * kMiB;
  type.truncate_bytes = 8 * kKiB;
  type.read_ratio = 0.7;
  type.write_ratio = 0.3;
  type.extend_ratio = 0.0;
  type.access = workload::AccessPattern::kRandom;

  workload::WorkloadSpec spec;
  spec.name = "capacity";
  spec.types.push_back(type);
  return spec;
}

/// Experiment settings: the workload starts inside the fill band, so
/// measurement begins immediately; windows are sized for measurable wall
/// clock, not paper fidelity.
exp::ExperimentConfig CapacityConfig() {
  exp::ExperimentConfig cfg;
  cfg.fill_lower = 0.3;
  cfg.fill_upper = 0.95;
  cfg.warmup_ms = 10'000;
  cfg.sample_interval_ms = 10'000;
  cfg.stable_tolerance_pp = 1.0;
  cfg.min_measure_ms = 20'000;
  cfg.max_measure_ms = 40'000;
  return cfg;
}

}  // namespace

int main() {
  bench::RejectRemovedEngineEnv();
  const bool smoke = std::getenv("ROFS_FIG9_SMOKE") != nullptr;
  const uint32_t kUsers = smoke ? 10'000 : 1'000'000;

  std::printf(
      "Figure 9: Million-User Capacity (extension)\n"
      "  application test, C-SCAN scheduling, 16 striped drives; each user\n"
      "  is one event-heap entry (wall-clock timings go to stderr).\n\n");

  disk::DiskSystemConfig disk_config = disk::DiskSystemConfig::Array(16);
  auto spec = sched::ParseSchedulerSpec("cscan");
  bench::DieOnError(spec.status(), "fig9 scheduler");
  disk_config.scheduler = *spec;

  exp::Experiment experiment(
      CapacityWorkload(kUsers),
      bench::FixedBlockFactory(workload::WorkloadKind::kTransactionProcessing),
      disk_config, CapacityConfig());

  const double t0 = NowSeconds();
  auto perf = experiment.RunApplicationTest();
  const double t1 = NowSeconds();
  bench::DieOnError(perf.status(), "fig9 capacity test");

  std::printf(
      "capacity: users=%u timer=heap disks=16\n"
      "          users_peak=%llu  events_peak=%llu  ops=%llu\n",
      kUsers, static_cast<unsigned long long>(perf->users_peak),
      static_cast<unsigned long long>(perf->events_peak),
      static_cast<unsigned long long>(perf->ops_executed));
  const long rss_kb = PeakRssKb();
  std::fprintf(stderr, "[fig9] capacity users=%u wall=%.2fs VmHWM=%ld MiB\n",
               kUsers, t1 - t0, rss_kb > 0 ? rss_kb / 1024 : -1);
  return 0;
}
