#ifndef ROFS_WORKLOAD_OP_GENERATOR_H_
#define ROFS_WORKLOAD_OP_GENERATOR_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fs/read_optimized_fs.h"
#include "obs/latency.h"
#include "sim/event_queue.h"
#include "util/histogram.h"
#include "util/random.h"
#include "workload/file_type.h"

namespace rofs::workload {

/// Which operation mix the generator draws from (paper section 3).
enum class OpMode {
  /// The full Table 2 mix: the application performance test.
  kApplication,
  /// Only extend / truncate / delete / create, renormalized: the
  /// allocation test.
  kAllocation,
  /// Allocation mix with deallocations partly converted to extends, used
  /// to drive utilization up to the measurement band while still aging the
  /// layout with churn.
  kFill,
  /// Whole-file reads and writes only: the sequential performance test.
  kSequential,
};

/// One executed operation, reported through OpGenerator::on_op for
/// tracing and per-type statistics.
struct OpRecord {
  sim::TimeMs issued;
  sim::TimeMs completed;
  size_t type_index;
  OpKind op;
  fs::FileId file;
  uint64_t bytes;
};

/// Per-(file type, op kind) accumulators.
struct OpStats {
  uint64_t count = 0;
  uint64_t bytes = 0;
  Histogram latency_ms;
};

struct OpGeneratorOptions {
  OpMode mode = OpMode::kApplication;
  /// Extends issued above this space utilization are converted into
  /// truncates (paper section 2.2, the upper bound M).
  double upper_bound_util = 1.0;
  uint64_t seed = 1;
  /// Issue operations through the fs async API and account for them in
  /// completion callbacks. Required when the disk runs a reordering
  /// scheduler (completion times are unknowable at issue); the default
  /// sync path is kept for FCFS, where it reproduces the seed simulator
  /// byte for byte. The async path draws from the RNG in exactly the
  /// sync path's order at issue time, so the operation streams match.
  bool async = false;
};

/// Drives a workload against a file system inside an event queue: creates
/// the initial files, schedules one event stream per user, and executes
/// operations drawn from the active mix, rescheduling each stream at
/// completion + Exp(process_time).
class OpGenerator {
 public:
  OpGenerator(const WorkloadSpec* workload, fs::ReadOptimizedFs* fs,
              sim::EventQueue* queue, OpGeneratorOptions options);

  /// Phase 2 of initialization: creates every file with a size drawn from
  /// its type's initial distribution. Returns the first allocation
  /// failure, if any (the disk filled during initialization).
  Status CreateInitialFiles();

  /// Phase 1: schedules the user event streams with start times uniform in
  /// [0, num_users * hit_frequency].
  void ScheduleUserStreams();

  void set_mode(OpMode mode) { options_.mode = mode; }
  OpMode mode() const { return options_.mode; }
  void set_upper_bound_util(double u) { options_.upper_bound_util = u; }

  uint64_t ops_executed() const { return ops_executed_; }
  uint64_t disk_full_count() const { return disk_full_count_; }
  bool hit_disk_full() const { return disk_full_count_ > 0; }
  const Histogram& op_latency_ms() const { return op_latency_ms_; }

  /// Accumulated per-(type, op) statistics since the last ResetStats().
  const OpStats& stats_for(size_t type_index, OpKind op) const {
    return op_stats_[type_index][static_cast<size_t>(op)];
  }

  /// Attaches per-op latency attribution (null detaches): the generator
  /// opens a ledger per op at issue and folds it against the measured
  /// latency at completion. Attach to the fs and disk system as well so
  /// their I/O charges the right phases.
  void set_attribution(obs::OpAttribution* attr) { attr_ = attr; }

  /// Flushes the file system's buffered write-back pages at `now` — the
  /// driver calls this when its measured run ends so deferred writes land
  /// inside the window rather than silently vanishing with the run. A
  /// no-op unless write-back buffering is enabled.
  void FlushWriteBack(sim::TimeMs now) { fs_->FlushAll(now); }

  /// Formatted per-type, per-op table (count, bytes, latency mean/p99).
  std::string StatsReport() const;

  void ResetStats();

  const std::vector<fs::FileId>& files_of_type(size_t t) const {
    return files_by_type_[t];
  }

  /// Switches the generator to open-loop injection: operations arrive at
  /// times drawn from `spec` regardless of earlier completions, so load
  /// past saturation queues up instead of self-throttling. The closed
  /// user streams stop (their in-flight think-time events become no-ops);
  /// each arrival picks a type weighted by its user population and then
  /// draws the op exactly like a closed-loop event. Idempotent: a second
  /// call (e.g. the sequential half of a performance pair) keeps the
  /// already-running arrival chain.
  void StartOpenLoop(const ArrivalSpec& spec);
  bool open_loop() const { return arrivals_ != nullptr; }

  /// Open-loop accounting: arrivals injected, operations whose completion
  /// has been reached, and the peak number in flight (the pending-op
  /// queue depth). All zero in closed-loop mode.
  uint64_t open_offered() const { return open_offered_; }
  uint64_t open_completed() const { return open_completed_; }
  uint64_t open_pending_peak() const { return open_pending_peak_; }

  /// Invoked on the first allocation failure of each operation (allocation
  /// tests use this to stop the simulation).
  std::function<void()> on_disk_full;

  /// Invoked with the logical bytes a completed operation moved and its
  /// completion time (throughput accounting).
  std::function<void(uint64_t bytes, sim::TimeMs completion)> on_bytes_moved;

  /// Invoked once per executed operation (tracing): at issue time in sync
  /// mode, at completion in async mode. The record carries both times.
  std::function<void(const OpRecord&)> on_op;

 private:
  /// Executes one op for a user of `type_index`. A closed-loop user's
  /// event reschedules itself after the think time; an open-loop arrival
  /// (`is_arrival`) executes one op and never reschedules.
  void RunUserEvent(size_t type_index, bool is_arrival);
  /// Injects one open-loop arrival and schedules the next.
  void RunArrival();
  void ScheduleNextArrival();
  /// Completion-side accounting for an open-loop op.
  void OnOpenOpComplete();

  /// Schedules a closed-loop user's next event at `next`.
  void ScheduleNext(size_t type_index, sim::TimeMs next);

  /// Async-mode tail of RunUserEvent: performs the op's issue-time draws
  /// and side effects in exactly ExecuteOp's order, then hands completion
  /// accounting to OnAsyncOpDone via the fs async API.
  void RunUserEventAsync(size_t type_index, bool is_arrival,
                         fs::FileId id, OpKind op, sim::TimeMs now);
  /// Allocation half of an async extend; reports the range to write.
  /// Returns true when there are bytes to write.
  bool PrepareExtendAsync(fs::FileId id, uint64_t bytes, uint64_t* offset,
                          uint64_t* size, uint64_t* bytes_moved);
  void OnAsyncOpDone(size_t type_index, bool is_arrival, OpKind op,
                     fs::FileId id, sim::TimeMs issued, uint64_t bytes_moved,
                     double think_ms, sim::TimeMs done);

  /// Executes one operation; returns its completion time and reports moved
  /// bytes through *bytes_moved.
  sim::TimeMs ExecuteOp(size_t type_index, fs::FileId id, OpKind op,
                        sim::TimeMs now, uint64_t* bytes_moved);

  sim::TimeMs DoExtend(const FileTypeSpec& type, fs::FileId id,
                       uint64_t bytes, sim::TimeMs now,
                       uint64_t* bytes_moved);

  OpKind DrawOpForMode(const FileTypeSpec& type);

  const WorkloadSpec* workload_;
  fs::ReadOptimizedFs* fs_;
  sim::EventQueue* queue_;
  OpGeneratorOptions options_;
  obs::OpAttribution* attr_ = nullptr;
  Rng rng_;
  std::vector<std::vector<fs::FileId>> files_by_type_;
  uint64_t ops_executed_ = 0;
  uint64_t disk_full_count_ = 0;
  Histogram op_latency_ms_;
  // op_stats_[type][op kind].
  std::vector<std::array<OpStats, 5>> op_stats_;

  // Open-loop mode (StartOpenLoop) only.
  std::unique_ptr<ArrivalProcess> arrivals_;
  /// Cumulative user counts per type: arrivals pick a type with
  /// probability proportional to its user population.
  std::vector<uint64_t> type_user_cum_;
  uint64_t total_users_ = 0;
  uint64_t open_offered_ = 0;
  uint64_t open_completed_ = 0;
  uint64_t open_pending_ = 0;
  uint64_t open_pending_peak_ = 0;

  // Zipf file picks (workload zipf_theta > 0) only; one picker per type.
  std::vector<ZipfPicker> zipf_;
};

}  // namespace rofs::workload

#endif  // ROFS_WORKLOAD_OP_GENERATOR_H_
