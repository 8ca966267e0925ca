#ifndef ROFS_DISK_DISK_SYSTEM_H_
#define ROFS_DISK_DISK_SYSTEM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "disk/disk_geometry.h"
#include "disk/disk_model.h"
#include "disk/layout.h"
#include "obs/latency.h"
#include "sched/scheduler.h"
#include "sim/event_queue.h"
#include "util/inline_function.h"
#include "util/units.h"

namespace rofs::disk {

/// Configuration of the disk subsystem (paper section 2.1 and Table 1).
struct DiskSystemConfig {
  /// Geometries of the drives. Heterogeneous drives are allowed; striped
  /// layouts level the array to the smallest drive.
  std::vector<DiskGeometry> disks;
  LayoutKind layout = LayoutKind::kStriped;
  /// The number of bytes allocated on a single disk before allocation moves
  /// to the next disk. Must be >= the sector size of every disk. Default:
  /// one track, per the XPRS design the paper's extent policy follows.
  uint64_t stripe_unit_bytes = 24 * kKiB;
  /// Minimum unit of transfer between disk and memory: the smaller of the
  /// smallest file-system block size and the stripe unit.
  uint64_t disk_unit_bytes = 1 * kKiB;
  /// Rotational delay model (see RotationModel). The paper's experiments
  /// use mean latency.
  RotationModel rotation_model = RotationModel::kMeanLatency;
  /// Per-disk request scheduling policy. The paper's model is FCFS (the
  /// default); see sched::Policy for the alternatives.
  sched::SchedulerSpec scheduler;

  /// Convenience: `n` identical drives.
  static DiskSystemConfig Array(uint32_t n,
                                const DiskGeometry& g = CdcWrenIV()) {
    DiskSystemConfig cfg;
    cfg.disks.assign(n, g);
    return cfg;
  }
};

/// The simulated disk subsystem: a set of drives behind a layout, addressed
/// as a linear space of disk units.
///
/// Two operating modes (see Disk):
///  * Passive (no BindQueue): Read()/Write() compute the completion time
///    of a request arriving at `arrival` given per-disk FCFS queueing, and
///    advance the drives' head and queue state. The caller (the
///    file-system layer) schedules its next event at the returned time.
///  * Dispatch-driven (after BindQueue): per-disk accesses flow through
///    each drive's request scheduler. Under the FCFS policy the sync
///    Read()/Write() API still returns exact completion times (service
///    order is submit order); other policies decide order when each head
///    frees, so callers must use the asynchronous group API and receive
///    the completion through a callback.
class DiskSystem {
 public:
  /// Group-completion callback; receives the time the last access of the
  /// group finished. Sized to carry the FS layer's continuation state.
  using DoneFn = util::InlineFunction<void(sim::TimeMs), 48>;

  explicit DiskSystem(const DiskSystemConfig& config);

  DiskSystem(const DiskSystem&) = delete;
  DiskSystem& operator=(const DiskSystem&) = delete;

  const DiskSystemConfig& config() const { return config_; }
  const Layout& layout() const { return *layout_; }
  uint32_t num_disks() const { return static_cast<uint32_t>(disks_.size()); }

  /// Switches every drive to dispatch-driven mode with the configured
  /// scheduling policy. Call once, before any traffic.
  void BindQueue(sim::EventQueue* queue);

  bool dispatch_mode() const { return queue_ != nullptr; }
  /// True when completion times are computable at submit (passive mode or
  /// the FCFS policy).
  bool predictable() const {
    return queue_ == nullptr || config_.scheduler.predictable();
  }

  /// Logical capacity in disk units / bytes.
  uint64_t capacity_du() const { return layout_->logical_capacity_du(); }
  uint64_t capacity_bytes() const {
    return capacity_du() * config_.disk_unit_bytes;
  }
  uint64_t disk_unit_bytes() const { return config_.disk_unit_bytes; }

  /// Completion time of a logical read/write of `n_du` units at `start_du`
  /// arriving at time `arrival`. The request completes when every per-disk
  /// access completes (full-stripe transfers exploit all drives in
  /// parallel). Requires predictable(); under a reordering scheduler use
  /// the group API below.
  sim::TimeMs Read(sim::TimeMs arrival, uint64_t start_du, uint64_t n_du);
  sim::TimeMs Write(sim::TimeMs arrival, uint64_t start_du, uint64_t n_du);

  /// Asynchronous request group (dispatch mode): accesses added between
  /// OpenGroup and CloseGroup complete as one unit; `on_done` fires with
  /// the completion time of the last access (or `arrival` for an empty
  /// group). Usable under any policy.
  uint32_t OpenGroup(sim::TimeMs arrival, DoneFn on_done);
  void GroupRead(uint32_t group, sim::TimeMs arrival, uint64_t start_du,
                 uint64_t n_du);
  void GroupWrite(uint32_t group, sim::TimeMs arrival, uint64_t start_du,
                  uint64_t n_du);
  /// Seals the group; `on_done` may fire inside this call when every
  /// access already completed (or none were added).
  void CloseGroup(uint32_t group);

  /// Maximum sustained sequential bandwidth of the configuration in
  /// bytes/ms — the denominator for all throughput percentages (paper
  /// section 3: "expressed as a percent of the sustained sequential
  /// performance the disk system is capable of providing").
  double MaxSequentialBandwidthBytesPerMs() const;

  /// Logical bytes moved by Read()/Write() since the last ResetStats().
  uint64_t logical_bytes_read() const { return logical_bytes_read_; }
  uint64_t logical_bytes_written() const { return logical_bytes_written_; }

  /// Physical bytes moved, including mirror/parity traffic.
  uint64_t physical_bytes() const;

  /// Total seeks performed across all drives.
  uint64_t total_seeks() const;

  const Disk& disk(uint32_t i) const { return disks_[i]; }

  /// Attaches an observability tracer (null detaches) to every drive;
  /// drive `i` records onto trace track `i`.
  void set_tracer(obs::SimTracer* tracer) {
    for (uint32_t i = 0; i < num_disks(); ++i) {
      disks_[i].set_tracer(tracer, i);
    }
  }

  /// Attaches per-op latency attribution (null detaches). Synchronous
  /// submissions charge each access to the attribution's current target;
  /// groups capture the target at OpenGroup and charge each deferred
  /// completion to it.
  void set_attribution(obs::OpAttribution* attr) { attr_ = attr; }

  void ResetStats();

  std::string DescribeConfig() const;

 private:
  struct Group {
    DoneFn on_done;
    sim::TimeMs max_done = 0.0;
    uint32_t outstanding = 0;
    bool open = false;
    uint32_t next_free = 0;
    /// Latency-attribution target captured at OpenGroup.
    obs::OpAttribution::Target target;
  };

  sim::TimeMs Submit(sim::TimeMs arrival,
                     const std::vector<DiskAccess>& accesses);
  /// Routes the group's per-disk accesses through the drive schedulers.
  void SubmitGroup(uint32_t group, sim::TimeMs arrival,
                   const std::vector<DiskAccess>& accesses);
  void OnGroupAccessDone(uint32_t group, sim::TimeMs done,
                         const obs::AccessPhases& phases);
  void FinishGroup(uint32_t group);
  /// The drive that should serve a mirrored read: less busy replica by
  /// predicted busy time (predictable modes) or pending load (reordering
  /// schedulers, where busy_until does not reflect the queue).
  uint32_t PickMirrorTarget(const DiskAccess& a) const;

  static constexpr uint32_t kNoGroup = 0xffffffffu;

  DiskSystemConfig config_;
  std::unique_ptr<Layout> layout_;
  std::vector<Disk> disks_;
  sim::EventQueue* queue_ = nullptr;
  std::vector<Group> groups_;
  uint32_t free_group_ = kNoGroup;
  uint64_t logical_bytes_read_ = 0;
  uint64_t logical_bytes_written_ = 0;
  obs::OpAttribution* attr_ = nullptr;
  // Reused scratch buffer to avoid per-request allocation.
  mutable std::vector<DiskAccess> scratch_;
};

}  // namespace rofs::disk

#endif  // ROFS_DISK_DISK_SYSTEM_H_
