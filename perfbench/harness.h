// Host-cost benchmark harness: builds the benchmark's workload cells,
// runs one cell through the simulator's public Experiment entry points,
// and turns the run into named metrics plus a digest of its simulated
// results. Everything here sits outside the simulator: the set-up
// boundary comes from an OpGenerator::on_op hook installed through
// Experiment::set_instrument, and allocator spans from a decorator that
// the AllocatorFactory returns (see harness.cc).

#ifndef ROFS_PERFBENCH_HARNESS_H_
#define ROFS_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "disk/disk_system.h"
#include "exp/experiment.h"
#include "util/statusor.h"
#include "workload/file_type.h"

namespace rofs::perfbench {

/// One benchmark workload: a cell of the simulator's experiment grid.
struct Case {
  workload::WorkloadSpec workload;
  exp::Experiment::AllocatorFactory factory;
  disk::DiskSystemConfig disk;
  exp::ExperimentConfig config;
  /// RunPerformancePair (application then sequential test) instead of
  /// RunApplicationTest.
  bool pair = false;
};

/// Builds the workload cell `name` (a workload of BENCHMARK.json). `seed`
/// is the benchmark seed; the simulator runs with seed + 1 because it
/// reserves 0.
StatusOr<Case> MakeCase(const std::string& name, uint64_t seed);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One Experiment::Run* call, measured.
struct RunResult {
  /// Non-OK when the run returned an error; nothing else is meaningful.
  Status status;
  /// Simulated results that must repeat exactly for a seed, traced or
  /// not: ops, bytes moved, throughput, disk-full events, allocator calls
  /// and failures, and events dispatched.
  std::string digest;
  /// Host seconds of the whole call and of its set-up, without the time
  /// the speed probe took.
  double wall_s = 0;
  double setup_s = 0;
  /// Median host seconds of one SpeedProbe run during set-up and during
  /// measurement.
  double setup_probe_s = 0;
  double measure_probe_s = 0;
  /// Simulated ops in the measured window(s).
  uint64_t measured_ops = 0;
  uint64_t events = 0;
  /// Invariant violations found in the run (empty when it is correct).
  std::vector<std::string> check_failures;
  /// Per-layer metrics (traced runs only), without the two that need an
  /// untraced partner run (exp.trace_overhead, sim.ns_per_event).
  std::vector<Metric> layers;
};

/// A fixed reference kernel that measures how fast the host runs code
/// like the simulator's right now: a small event heap and hash table,
/// churned for a fixed number of steps, under 100 KiB of data. Other
/// tenants of a shared host slow the simulator by up to a half for
/// seconds to minutes at a time, and slow this kernel alike, so host time
/// divided by the probe's time at the same moment is steady.
class SpeedProbe {
 public:
  SpeedProbe();
  /// Runs the kernel once; returns its host seconds.
  double Run();

 private:
  uint64_t Next();

  std::vector<std::pair<uint64_t, uint32_t>> heap_;
  std::unordered_map<uint32_t, uint64_t> table_;
  uint64_t rng_ = 88172645463325252ull;
};

/// Simulated ops between two probe runs: 15-50 ms of host time on the
/// benchmark workloads, so the probe costs 2-7 % of a run.
inline constexpr uint64_t kProbeEveryOps = 32768;

/// The probe's time on the reference host speed that end-to-end times are
/// scaled to: a time t measured while the probe took p reads as
/// t * kProbeReferenceS / p.
inline constexpr double kProbeReferenceS = 1e-3;

/// The digest of a run's results (see RunResult::digest); `events` is the
/// number of events the run dispatched.
std::string Digest(const std::vector<exp::PerfResult>& results,
                   uint64_t events);

/// Runs the cell once. Every run installs the set-up boundary hook, which
/// also runs a SpeedProbe every kProbeEveryOps ops and at the boundary; a
/// traced run also wraps the allocator in a TimingAllocator and turns on
/// obs metrics.
RunResult RunOnce(const Case& c, bool traced);

/// End-to-end metrics of an untraced run, in host time scaled to the
/// probe's reference speed phase by phase; `peak_rss_mib` is the process
/// peak so far.
std::vector<Metric> EndToEndMetrics(const RunResult& run, double peak_rss_mib);

/// Per-layer metrics of a traced run, completed with the ones that need
/// its untraced partner.
std::vector<Metric> LayerMetrics(const RunResult& traced,
                                 const RunResult& untraced);

/// Peak resident set size of this process, in MiB.
double PeakRssMib();

}  // namespace rofs::perfbench

#endif  // ROFS_PERFBENCH_HARNESS_H_
