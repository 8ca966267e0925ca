#ifndef ROFS_OBS_LATENCY_H_
#define ROFS_OBS_LATENCY_H_

#include <cstdint>
#include <vector>

namespace rofs::obs {

class Histogram;
class Registry;

/// The service phases of one disk access, as the disk model computed
/// them: time queued behind other requests, then the three mechanical
/// phases. Trivially copyable.
struct AccessPhases {
  double queue_wait_ms = 0.0;
  double seek_ms = 0.0;
  double rotation_ms = 0.0;
  double transfer_ms = 0.0;

  double total_ms() const {
    return queue_wait_ms + seek_ms + rotation_ms + transfer_ms;
  }
};

/// Per-op latency attribution: a pool of phase ledgers, one live ledger
/// per in-flight operation, accumulated at the disk completion points and
/// folded into per-phase latency histograms when the op completes.
///
/// The six folded phases — cache (metadata/descriptor I/O), queue, seek,
/// rotation, transfer, other — partition the measured op latency exactly:
/// when the raw phase sum exceeds the latency (parallel multi-disk
/// accesses overlap in time), every slot is scaled by latency/raw so that
/// sum(phase means x count) == sum of measured op latencies. Think time
/// and write-back flush service are recorded into separate histograms and
/// are not part of the partition.
///
/// Threading: every method runs on the run's event-loop thread (issue
/// stacks and completion events). Allocation: the pool grows to the peak
/// number of concurrently in-flight ops and is reused through a free list
/// afterwards, so steady state records without allocating.
class OpAttribution {
 public:
  static constexpr uint32_t kNoLedger = 0xffffffffu;

  /// What a disk access currently being issued or completed should be
  /// charged to.
  enum class Mode : uint8_t {
    kNone,     ///< Untracked work (readahead): drop.
    kOp,       ///< An op's data I/O: per-phase into the ledger.
    kOpCache,  ///< An op's metadata I/O: total into the ledger's cache slot.
    kFlush,    ///< Write-back flush: total into the flush histogram.
  };

  struct Target {
    uint32_t ledger = kNoLedger;
    Mode mode = Mode::kNone;
  };

  /// Registers the `lat.*` histograms in `registry` (which must outlive
  /// this object).
  explicit OpAttribution(Registry* registry);

  /// Histograms only record while armed (the measurement phase), mirroring
  /// the tracer's armed gate. Ledger bookkeeping runs regardless so ops in
  /// flight across the arm boundary stay consistent.
  void set_armed(bool armed) { armed_ = armed; }
  bool armed() const { return armed_; }

  /// Issue side (op generator): acquires a cleared ledger and makes it the
  /// current data-I/O target. The caller clears the target once the op's
  /// issue stack unwinds.
  uint32_t BeginOp();

  Target target() const { return current_; }
  void set_target(Target t) { current_ = t; }
  void ClearTarget() { current_ = Target{}; }

  /// Completion handshake for async ops, whose completion callbacks have
  /// no room to carry a ledger index: DiskSystem::FinishGroup publishes
  /// the finishing group's target immediately before invoking the op's
  /// callback, and the callback recovers it with TakeActive(). An op that
  /// completes synchronously inside its own issue stack still has the
  /// current target set, which wins.
  void SetFinishing(Target t) { finishing_ = t; }
  Target TakeActive() {
    const Target active =
        current_.ledger != kNoLedger ? current_ : finishing_;
    finishing_ = Target{};
    return active;
  }

  /// Charges one disk access to `t` (see Mode).
  void OnAccess(Target t, const AccessPhases& p);

  /// Folds the ledger into the per-phase histograms against the op's
  /// measured latency and releases it back to the pool.
  void FoldOp(uint32_t ledger, double latency_ms);

  void RecordThink(double think_ms);

  /// Ledgers currently acquired; exposed for tests.
  uint32_t live_ledgers() const { return live_; }

 private:
  /// Ledger slot order: cache, queue, seek, rotation, transfer.
  static constexpr int kSlots = 5;

  struct Ledger {
    double slot[kSlots];
    uint32_t next_free;
  };

  bool armed_ = false;
  Target current_;
  Target finishing_;
  uint32_t free_head_ = kNoLedger;
  uint32_t live_ = 0;
  std::vector<Ledger> pool_;
  /// phase_[0..4] mirror the ledger slots; then other.
  Histogram* phase_[kSlots + 1];
  Histogram* think_;
  Histogram* flush_;
};

}  // namespace rofs::obs

#endif  // ROFS_OBS_LATENCY_H_
