#ifndef ROFS_SIM_EVENT_QUEUE_H_
#define ROFS_SIM_EVENT_QUEUE_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/inline_function.h"

namespace rofs::obs {
class SimTracer;
}

namespace rofs::sim {

/// Simulation time in milliseconds (the paper expresses all timing
/// parameters — seek, rotation, process time, hit frequency — in ms).
using TimeMs = double;

/// Event-driven simulation core: a contiguous 4-ary heap of
/// (time, seq, callback) entries with FIFO tie-breaking and a
/// monotonically advancing clock.
///
/// The paper (section 2.2): "The events are maintained in a heap, sorted by
/// their scheduled time." The heap is an implicit 4-ary array heap of
/// 16-byte entries — the (time, seq) priority and the callback-slot index
/// packed into one 128-bit integer whose unsigned order is the dispatch
/// order; the callbacks themselves sit in a side slab indexed by slot, so
/// sift operations compare and move single integers — four to a cache
/// line — instead of dragging a type-erased callable through every level. Callbacks are
/// util::InlineFunction (48-byte small-buffer, move-only), so steady-state
/// scheduling performs zero heap allocations: the heap vector, the slab,
/// and the slot free list all stop growing once the live event population
/// peaks (Reserve() pre-sizes them). Dispatch order is the strict total
/// order (time, seq), identical to the seed implementation, so simulation
/// output is byte-for-byte unchanged.
class EventQueue {
 public:
  using Callback = util::InlineFunction<void(), 48>;

  EventQueue() = default;
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current simulated time. Advances as events are dispatched.
  TimeMs now() const { return now_; }

  /// Stable pointer to the clock, for observers that outlive individual
  /// reads (the obs tracer). Valid for the queue's lifetime.
  const TimeMs* now_ptr() const { return &now_; }

  size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

  /// Pre-sizes the heap, slab, and free-list storage so Schedule() never
  /// allocates while the live event population stays within `events`.
  void Reserve(size_t events);

  /// Schedules `f` at absolute time `when`. Events scheduled in the past
  /// are clamped to `now()` (they run next, in scheduling order). The
  /// callable is constructed directly in its slab slot — no temporary
  /// wrapper, no copy.
  template <typename F>
  void Schedule(TimeMs when, F&& f) {
    // <= (not <): scheduling exactly at now() keeps the same time value
    // but normalizes a -0.0 argument to now_'s +0.0, which MakeEntry
    // requires.
    if (when <= now_) when = now_;
    const uint32_t slot = AcquireSlot();
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      SlotRef(slot) = std::forward<F>(f);
    } else {
      SlotRef(slot).Emplace(std::forward<F>(f));
    }
    assert(next_seq_ < (uint64_t{1} << kSeqBits) && "event sequence limit");
    heap_.push_back(MakeEntry(when, next_seq_++, slot));
    if (heap_.size() > max_heap_depth_) max_heap_depth_ = heap_.size();
    SiftUp(heap_.size() - 1);
  }

  /// Schedules `f` at now() + delay.
  template <typename F>
  void ScheduleAfter(TimeMs delay, F&& f) {
    Schedule(now_ + delay, std::forward<F>(f));
  }

  /// Pops and dispatches the earliest event. Returns false when empty.
  bool RunNext();

  /// Dispatches events until the queue empties, `until` is reached, or
  /// Stop() is called. Returns the number of events dispatched.
  uint64_t RunUntil(TimeMs until);

  /// Runs to queue exhaustion (or Stop()).
  uint64_t Run();

  /// Requests that Run()/RunUntil() return after the current event.
  void Stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  /// Total events dispatched over the queue's lifetime.
  uint64_t dispatched() const { return dispatched_; }

  /// Largest live event population seen so far.
  size_t max_heap_depth() const { return max_heap_depth_; }

  /// Attaches an observability tracer (null detaches); the queue samples
  /// its heap depth onto the tracer's counter track every 1024 dispatches.
  void set_tracer(obs::SimTracer* tracer) { tracer_ = tracer; }

 private:
  /// Heap entry: time, sequence number, and callback slot packed into one
  /// 128-bit integer whose unsigned order IS the dispatch order — a single
  /// cmp/sbb pair per comparison, four entries per cache line.
  ///
  ///   bits 127..64  IEEE-754 bit pattern of the scheduled time. Time is
  ///                 always >= +0.0 (Schedule clamps to now_, which starts
  ///                 at 0, and normalizes -0.0 by clamping with <=), and
  ///                 for non-negative doubles the unsigned order of the
  ///                 bit pattern equals the numeric order.
  ///   bits 63..24   low 40 bits of seq, the FIFO tie-breaker. Unique per
  ///                 event, so the slot bits below never decide an order.
  ///                 40 bits bound one queue's lifetime at ~1.1e12 events
  ///                 (debug-asserted; weeks of wall clock per experiment).
  ///   bits 23..0    callback slot index (bounds live events at ~16.7M,
  ///                 ~1 GB of callback slab; debug-asserted).
  using Entry = unsigned __int128;

  static constexpr uint32_t kSeqBits = 40;
  static constexpr uint32_t kSlotBits = 24;

  static Entry MakeEntry(TimeMs when, uint64_t seq, uint32_t slot) {
    return (static_cast<Entry>(std::bit_cast<uint64_t>(when)) << 64) |
           (static_cast<Entry>(seq) << kSlotBits) | slot;
  }
  static TimeMs EntryTime(Entry e) {
    return std::bit_cast<TimeMs>(static_cast<uint64_t>(e >> 64));
  }
  static uint32_t EntrySlot(Entry e) {
    return static_cast<uint32_t>(e) & ((uint32_t{1} << kSlotBits) - 1);
  }

  static bool Earlier(Entry a, Entry b) { return a < b; }

  /// The callback slab is chunked so slots never move: growth appends a
  /// fixed-size chunk instead of relocating, which lets dispatch invoke a
  /// callable in place even when the callback itself schedules new events
  /// (and thereby grows the slab mid-invoke).
  static constexpr uint32_t kChunkShift = 9;  // 512 callbacks per chunk.
  static constexpr uint32_t kChunkSize = uint32_t{1} << kChunkShift;

  Callback& SlotRef(uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  /// Returns a free slab slot, growing the slab by a chunk if needed.
  uint32_t AcquireSlot() {
    if (!free_slots_.empty()) {
      const uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    const uint32_t slot = slots_used_++;
    assert(slot < (uint32_t{1} << kSlotBits) && "live event population limit");
    if ((slot >> kChunkShift) == chunks_.size()) {
      chunks_.push_back(std::make_unique<Callback[]>(kChunkSize));
    }
    return slot;
  }

  /// Moves heap_[i] toward the root until the 4-ary heap property holds
  /// again.
  void SiftUp(size_t i);
  /// Index of the earliest child of `i` in a heap of `n` entries; `i` must
  /// have at least one child.
  size_t MinChild(size_t i, size_t n) const;

  /// Removes the root, restoring the heap, and returns its entry.
  Entry PopRoot();

  std::vector<Entry> heap_;  // Implicit 4-ary heap, root at index 0.
  std::vector<std::unique_ptr<Callback[]>> chunks_;  // Stable-address slab;
                                                     // grows to the peak
                                                     // live-event
                                                     // population, then
                                                     // stays.
  std::vector<uint32_t> free_slots_;   // Slab slots open for reuse.
  uint32_t slots_used_ = 0;            // High-water mark of the slab.
  TimeMs now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t dispatched_ = 0;
  size_t max_heap_depth_ = 0;
  bool stopped_ = false;
  obs::SimTracer* tracer_ = nullptr;
};

/// Process-wide total of events dispatched by EventQueue instances that
/// have been destroyed (each queue folds its count in on destruction).
/// The bench harness reads it around a sweep for an end-to-end
/// events-per-second figure without touching any per-event hot path.
uint64_t RetiredDispatchedEvents();

}  // namespace rofs::sim

#endif  // ROFS_SIM_EVENT_QUEUE_H_
