#ifndef ROFS_EXP_EXPERIMENT_H_
#define ROFS_EXP_EXPERIMENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc/allocator.h"
#include "disk/disk_system.h"
#include "exp/run_record.h"
#include "fs/read_optimized_fs.h"
#include "obs/tracer.h"
#include "sim/event_queue.h"
#include "util/statusor.h"
#include "workload/file_type.h"
#include "workload/op_generator.h"

namespace rofs::exp {

/// Live state of one measurement's windowed time-series capture (defined
/// in experiment.cc; present in a Sim only when obs.window_ms > 0).
struct WindowRecorder;

/// Harness parameters (paper sections 2.2 and 3).
struct ExperimentConfig {
  /// The measurement band [N, M] of disk utilization for performance
  /// tests: the disks are at least 90% and at most 95% full.
  double fill_lower = 0.90;
  double fill_upper = 0.95;

  /// Throughput sampling interval (paper: 10 simulated seconds).
  double sample_interval_ms = 10'000;
  /// Stabilization tolerance between consecutive samples, in absolute
  /// percentage points of utilization (paper: 0.1; benches use a looser
  /// value plus the time cap below — see DESIGN.md substitutions).
  double stable_tolerance_pp = 0.25;
  int stable_samples = 3;

  /// Warm-up simulated time discarded before measurement begins, and caps
  /// on the measured simulated time. The sequential test gets larger caps:
  /// a single whole-file operation can take minutes of simulated time.
  double warmup_ms = 20'000;
  double min_measure_ms = 30'000;
  double max_measure_ms = 300'000;
  double seq_min_measure_ms = 100'000;
  double seq_max_measure_ms = 1'200'000;

  /// Allocation-test termination: the test ends at the first allocation
  /// failure; these caps guard configurations whose churn equilibrium
  /// never quite reaches a failing request (a tiny-extent policy can pack
  /// essentially the whole disk). At `alloc_full_utilization` the system
  /// is declared full with ~zero external fragmentation.
  double alloc_full_utilization = 0.999;
  uint64_t max_alloc_test_ops = 20'000'000;

  uint64_t seed = 1;

  /// File-system extensions (buffer cache, metadata I/O). Defaults to the
  /// paper's cache-less, metadata-free model.
  fs::FsOptions fs_options;

  /// Observability (metric snapshots, sim-time tracing). Defaults to off:
  /// no obs objects are constructed and every instrumentation point stays
  /// a null-pointer check.
  obs::Options obs;

  /// Rejects nonsense configurations instead of silently running them:
  /// the fill band must satisfy 0 < lower <= upper <= 1, every interval
  /// and cap must be positive and ordered (min <= max measurement
  /// windows), and the seed must be non-zero (stream derivation reserves
  /// 0-seeded streams as degenerate). Called by Experiment at the start
  /// of every Run* entry point.
  Status Validate() const;
};

/// Result of an allocation test: fragmentation when the disk system first
/// cannot satisfy a request (paper section 3).
struct AllocationResult {
  /// Space allocated but unused, as a fraction of allocated space.
  double internal_fragmentation = 0;
  /// Space still free when the first request failed, as a fraction of the
  /// total space.
  double external_fragmentation = 0;
  /// Space utilization when the test ended.
  double utilization = 0;
  double avg_extents_per_file = 0;
  uint64_t ops_executed = 0;
  /// Simulated time at which the disk filled.
  double simulated_ms = 0;
  /// Allocation-policy counters accumulated over the whole test.
  alloc::AllocatorStats alloc_stats;
  /// Deterministic capacity metrics (independent of wall-clock
  /// conditions): simulated users and the peak live event population.
  uint64_t users_peak = 0;
  uint64_t events_peak = 0;
  /// Metric-registry snapshot ("disk.queue_wait_ms.p50", ...) when the
  /// run had --metrics on; empty otherwise. Name-sorted.
  std::vector<std::pair<std::string, double>> obs_metrics;

  /// Flat RunRecord view of this result ("internal_frag",
  /// "external_frag", ..., "alloc.splits"); identity fields are left for
  /// the harness to fill. FromRecord inverts the mapping, so aggregation
  /// and reporting can consume records while callers keep the typed view.
  RunRecord ToRecord() const;
  static AllocationResult FromRecord(const RunRecord& record);
};

/// Result of an application or sequential performance test.
struct PerfResult {
  /// Throughput as a fraction of the maximum sequential bandwidth.
  double utilization_of_max = 0;
  bool stabilized = false;
  double measured_ms = 0;
  uint64_t ops_executed = 0;
  uint64_t bytes_moved = 0;
  uint64_t disk_full_events = 0;
  double avg_extents_per_file = 0;
  double internal_fragmentation = 0;
  /// Mean operation latency during measurement (ms).
  double mean_op_latency_ms = 0;
  /// Open-loop arrivals only (workload arrivals != closed): operations
  /// offered (injected) and completed during the measured window, and the
  /// peak pending-op queue depth since arrivals started. Offered minus
  /// completed is the backlog an overloaded system accumulated. The
  /// "open.*" record keys exist only for open-loop runs, so closed-loop
  /// records (and their goldens) are byte-identical to earlier releases.
  bool open_loop = false;
  uint64_t offered_ops = 0;
  uint64_t completed_ops = 0;
  uint64_t pending_peak = 0;
  /// Allocation-policy counters since the simulation was constructed.
  alloc::AllocatorStats alloc_stats;
  /// Deterministic capacity metrics; see AllocationResult.
  uint64_t users_peak = 0;
  uint64_t events_peak = 0;
  /// Metric-registry snapshot when the run had --metrics on; empty
  /// otherwise. Name-sorted.
  std::vector<std::pair<std::string, double>> obs_metrics;
  /// Windowed time-series over the measurement phase when obs.window_ms
  /// was set; empty otherwise. Carried into the RunRecord by ToRecord.
  obs::WindowSeries series;

  /// Flat RunRecord view ("throughput_of_max", "measured_ms", ...,
  /// "alloc.splits"); FromRecord inverts it (the series rides along
  /// verbatim). See AllocationResult.
  RunRecord ToRecord() const;
  static PerfResult FromRecord(const RunRecord& record);
};

/// Builds and runs the paper's three tests for one (workload, allocation
/// policy, disk configuration) triple. A fresh simulation is constructed
/// per Run* call; RunPerformancePair() runs the application test and then
/// the sequential test on the same aged file system, exactly as the paper
/// sequences them.
class Experiment {
 public:
  using AllocatorFactory =
      std::function<std::unique_ptr<alloc::Allocator>(uint64_t total_du)>;

  Experiment(workload::WorkloadSpec workload, AllocatorFactory factory,
             disk::DiskSystemConfig disk_config, ExperimentConfig config);

  /// Paper section 3: run create/extend/truncate/delete until the first
  /// allocation failure; report fragmentation.
  StatusOr<AllocationResult> RunAllocationTest();

  /// Application performance test alone.
  StatusOr<PerfResult> RunApplicationTest();

  /// Sequential performance test alone.
  StatusOr<PerfResult> RunSequentialTest();

  /// Hook invoked with each freshly constructed operation generator (e.g.
  /// to attach an OpTrace) before any events run.
  void set_instrument(std::function<void(workload::OpGenerator*)> fn) {
    instrument_ = std::move(fn);
  }

  /// When set, the application-phase per-type statistics report is copied
  /// here after measurement.
  void set_stats_sink(std::string* sink) { stats_sink_ = sink; }

  /// Application test followed by the sequential test on the same system.
  struct PerfPair {
    PerfResult application;
    PerfResult sequential;
  };
  StatusOr<PerfPair> RunPerformancePair();

 private:
  /// Live simulation state for one run. Member order is destruction
  /// order in reverse: components holding tracer pointers (allocator,
  /// disk, fs, gen) are destroyed before the obs session, and the queue
  /// — whose clock the session reads — outlives everything.
  struct Sim {
    Sim();
    ~Sim();  // Out of line: WindowRecorder is complete in experiment.cc.

    sim::EventQueue queue;
    std::unique_ptr<obs::Session> obs;
    std::unique_ptr<alloc::Allocator> allocator;
    std::unique_ptr<disk::DiskSystem> disk;
    std::unique_ptr<fs::ReadOptimizedFs> fs;
    std::unique_ptr<workload::OpGenerator> gen;
    /// Windowed-metrics capture; created by the first Measure that needs
    /// it (self-rescheduling tick events keep a pointer to it, so it
    /// lives with the Sim, not the measurement).
    std::unique_ptr<WindowRecorder> window;
  };

  /// Creates the disk/allocator/fs/generator and the initial files, and
  /// fills the disk into the measurement band when `fill` is set.
  StatusOr<std::unique_ptr<Sim>> Setup(workload::OpMode mode, bool fill);

  /// Fills the capacity metrics shared by both result kinds.
  void FillCapacity(Sim* sim, uint64_t* users_peak,
                    uint64_t* events_peak) const;

  /// Runs the measurement loop of a performance test in the given mode.
  PerfResult Measure(Sim* sim, workload::OpMode mode);

  /// Folds end-of-run component statistics into the obs registry and
  /// snapshots it into `out` (no-op unless --metrics).
  void SnapshotObs(Sim* sim,
                   std::vector<std::pair<std::string, double>>* out);

  /// Hands the run's trace buffer to the global collector (no-op unless
  /// tracing).
  void FinishObs(Sim* sim);

  workload::WorkloadSpec workload_;
  AllocatorFactory factory_;
  disk::DiskSystemConfig disk_config_;
  ExperimentConfig config_;
  std::function<void(workload::OpGenerator*)> instrument_;
  std::string* stats_sink_ = nullptr;
};

}  // namespace rofs::exp

#endif  // ROFS_EXP_EXPERIMENT_H_
