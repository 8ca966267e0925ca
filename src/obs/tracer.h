#ifndef ROFS_OBS_TRACER_H_
#define ROFS_OBS_TRACER_H_

#include <cstdint>
#include <memory>

#include "obs/latency.h"
#include "obs/metrics.h"
#include "obs/options.h"
#include "obs/trace_buffer.h"

namespace rofs::obs {

/// Operation kinds as the tracer sees them; the exp layer converts from
/// workload::OpKind (obs stays below the workload layer so instrumented
/// code never creates an include cycle).
enum class OpEvent : uint8_t { kRead, kWrite, kExtend, kTruncate, kDelete };

/// The per-run event recorder handed to instrumented components. All
/// record methods are inline, allocation-free, and cheap enough to sit on
/// simulation hot paths; components hold a `SimTracer*` that is null when
/// observability is off, so the disabled cost is one predictable branch
/// at each instrumentation point.
///
/// Timestamps are *simulated* milliseconds. Components that know their
/// exact event times pass them; the others read the simulation clock
/// through the `now` pointer wired at construction (the event queue's
/// internal clock, stable for the life of the run).
class SimTracer {
 public:
  /// `now` must outlive the tracer. `buffer` may be null (metrics-only
  /// sessions record histograms but no events).
  SimTracer(TraceBuffer* buffer, const double* now, Registry* registry);

  double now() const { return *now_; }
  bool tracing() const { return buffer_ != nullptr; }

  /// Recording starts disarmed: the harness arms the tracer once the
  /// interesting phase begins, so instantaneous setup/fill churn neither
  /// fills the bounded trace buffer nor skews the latency histograms.
  void Arm() { armed_ = true; }
  void Disarm() { armed_ = false; }
  bool armed() const { return armed_; }

  /// One disk access, decomposed into its service phases. Emits spans
  /// queue_wait | seek | rotate | transfer back to back from `start`
  /// (boundary-crossing costs inside a transfer are folded into their
  /// phase totals, so span edges are approximate within an access while
  /// phase durations are exact) and feeds the queue-wait histogram.
  void DiskAccess(uint32_t disk, double arrival, double start,
                  double seek_ms, double rotate_ms, double transfer_ms,
                  uint64_t bytes) {
    if (!armed_) return;
    const double wait = start - arrival;
    if (wait > 0) disk_queue_wait_ms_->Record(wait);
    if (buffer_ == nullptr) return;
    const uint8_t track =
        static_cast<uint8_t>(kTrackDiskBase + (disk & 0x7f));
    double t = start;
    if (wait > 0) {
      AddSpan(Name::kQueueWait, Cat::kDisk, track, arrival, wait, 0);
    }
    if (seek_ms > 0) {
      AddSpan(Name::kSeek, Cat::kDisk, track, t, seek_ms, 0);
      t += seek_ms;
    }
    if (rotate_ms > 0) {
      AddSpan(Name::kRotate, Cat::kDisk, track, t, rotate_ms, 0);
      t += rotate_ms;
    }
    if (transfer_ms > 0) {
      AddSpan(Name::kTransfer, Cat::kDisk, track, t, transfer_ms,
              static_cast<double>(bytes));
    }
  }

  void CacheHit() {
    if (armed_ && buffer_ != nullptr) {
      AddInstant(Name::kCacheHit, Cat::kCache, kTrackCache, now(), 0);
    }
  }
  void CacheMiss() {
    if (armed_ && buffer_ != nullptr) {
      AddInstant(Name::kCacheMiss, Cat::kCache, kTrackCache, now(), 0);
    }
  }
  void CacheEvict() {
    if (armed_ && buffer_ != nullptr) {
      AddInstant(Name::kCacheEvict, Cat::kCache, kTrackCache, now(), 0);
    }
  }
  /// A readahead install of `pages` cache pages.
  void CachePrefetch(uint64_t pages) {
    if (armed_ && buffer_ != nullptr) {
      AddInstant(Name::kCachePrefetch, Cat::kCache, kTrackCache, now(),
                 static_cast<double>(pages));
    }
  }
  /// A write-back flush of `pages` dirty pages toward the disk.
  void CacheFlush(uint64_t pages) {
    if (armed_ && buffer_ != nullptr) {
      AddInstant(Name::kCacheFlush, Cat::kCache, kTrackCache, now(),
                 static_cast<double>(pages));
    }
  }

  void AllocBlock(uint64_t length_du) {
    if (armed_ && buffer_ != nullptr) {
      AddInstant(Name::kAllocBlock, Cat::kAlloc, kTrackAlloc, now(),
                 static_cast<double>(length_du));
    }
  }
  void FreeBlock(uint64_t length_du) {
    if (armed_ && buffer_ != nullptr) {
      AddInstant(Name::kFreeBlock, Cat::kAlloc, kTrackAlloc, now(),
                 static_cast<double>(length_du));
    }
  }
  void Coalesce(uint64_t merges) {
    if (armed_ && buffer_ != nullptr && merges > 0) {
      AddInstant(Name::kCoalesce, Cat::kAlloc, kTrackAlloc, now(),
                 static_cast<double>(merges));
    }
  }
  void AllocFailed() {
    if (armed_ && buffer_ != nullptr) {
      AddInstant(Name::kAllocFailed, Cat::kAlloc, kTrackAlloc, now(), 0);
    }
  }

  /// A modeled metadata (file descriptor) read that actually went to
  /// disk.
  void MetadataRead(double arrival, double done) {
    if (armed_ && buffer_ != nullptr) {
      AddSpan(Name::kMetadataRead, Cat::kFs, kTrackFs, arrival,
              done - arrival, 0);
    }
  }

  /// One executed workload operation: a span from issue to completion on
  /// the op track, plus the op-latency histogram.
  void Op(OpEvent op, double issued, double completed, uint64_t bytes) {
    if (!armed_) return;
    op_latency_ms_->Record(completed - issued);
    if (buffer_ == nullptr) return;
    static constexpr Name kOpNames[] = {Name::kOpRead, Name::kOpWrite,
                                        Name::kOpExtend, Name::kOpTruncate,
                                        Name::kOpDelete};
    AddSpan(kOpNames[static_cast<uint8_t>(op)], Cat::kOp, kTrackOps,
            issued, completed - issued, static_cast<double>(bytes));
  }

  /// One scheduler dispatch decision: the pending-queue depth observed
  /// when the head freed (counter on the disk's track) and the head
  /// travel it chose, in cylinders including sweep turnaround (instant).
  void DiskDispatch(uint32_t disk, size_t queue_depth,
                    uint64_t seek_cylinders) {
    if (!armed_ || buffer_ == nullptr) return;
    const uint8_t track =
        static_cast<uint8_t>(kTrackDiskBase + (disk & 0x7f));
    TraceEvent e;
    e.ts_ms = now();
    e.value = static_cast<double>(queue_depth);
    e.name = Name::kSchedQueueDepth;
    e.cat = Cat::kDisk;
    e.phase = Phase::kCounter;
    e.track = track;
    buffer_->Add(e);
    AddInstant(Name::kDispatch, Cat::kDisk, track, now(),
               static_cast<double>(seek_cylinders));
  }

  /// Sampled event-heap depth (counter track).
  void HeapDepth(double t, size_t depth) {
    if (!armed_ || buffer_ == nullptr) return;
    TraceEvent e;
    e.ts_ms = t;
    e.value = static_cast<double>(depth);
    e.name = Name::kHeapDepth;
    e.cat = Cat::kSim;
    e.phase = Phase::kCounter;
    e.track = kTrackSim;
    buffer_->Add(e);
  }

  Histogram* disk_queue_wait_ms() { return disk_queue_wait_ms_; }
  Histogram* op_latency_ms() { return op_latency_ms_; }

 private:
  void AddSpan(Name name, Cat cat, uint8_t track, double ts, double dur,
               double value) {
    TraceEvent e;
    e.ts_ms = ts;
    e.dur_ms = dur;
    e.value = value;
    e.name = name;
    e.cat = cat;
    e.phase = Phase::kComplete;
    e.track = track;
    buffer_->Add(e);
  }
  void AddInstant(Name name, Cat cat, uint8_t track, double ts,
                  double value) {
    TraceEvent e;
    e.ts_ms = ts;
    e.value = value;
    e.name = name;
    e.cat = cat;
    e.phase = Phase::kInstant;
    e.track = track;
    buffer_->Add(e);
  }

  TraceBuffer* buffer_;   // Null for metrics-only sessions.
  const double* now_;     // The owning run's simulation clock.
  bool armed_ = false;
  Histogram* disk_queue_wait_ms_;  // Owned by the registry.
  Histogram* op_latency_ms_;
};

/// Everything observability owns for one simulation run: the registry,
/// the (optional) trace buffer, and the tracer that instrumented
/// components record through. Constructed by the experiment harness when
/// either flag is on; never constructed otherwise.
class Session {
 public:
  Session(const Options& options, const double* sim_now);

  const Options& options() const { return options_; }
  SimTracer* tracer() { return &tracer_; }
  /// Per-op latency attribution, registered against the registry; armed
  /// and disarmed with the tracer.
  OpAttribution* attribution() { return &attribution_; }
  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }
  /// Null unless tracing.
  TraceBuffer* buffer() { return buffer_.get(); }
  /// Moves the trace buffer out (for registration with the collector).
  std::unique_ptr<TraceBuffer> TakeBuffer() { return std::move(buffer_); }

  /// Arms / disarms the tracer and the latency attribution together.
  void ArmAll();
  void DisarmAll();

  /// Trace events dropped by capacity so far. Zero when not tracing.
  uint64_t DroppedSpans() const;

 private:
  Options options_;
  Registry registry_;
  std::unique_ptr<TraceBuffer> buffer_;
  SimTracer tracer_;
  OpAttribution attribution_;
};

}  // namespace rofs::obs

#endif  // ROFS_OBS_TRACER_H_
