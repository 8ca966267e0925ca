#include "sim/event_queue.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <utility>

#include "obs/tracer.h"

namespace rofs::sim {

namespace {

std::atomic<uint64_t> g_retired_dispatched{0};

}  // namespace

uint64_t RetiredDispatchedEvents() {
  return g_retired_dispatched.load(std::memory_order_relaxed);
}

EventQueue::~EventQueue() {
  g_retired_dispatched.fetch_add(dispatched_, std::memory_order_relaxed);
}

void EventQueue::SiftUp(size_t i) {
  const Entry moving = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 4;
    if (!Earlier(moving, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = moving;
}

size_t EventQueue::MinChild(size_t i, size_t n) const {
  const size_t first_child = 4 * i + 1;
  if (first_child + 4 <= n) {
    // Full fan-out: a two-level tournament selected with setcc index
    // arithmetic (index += bool), which compiles branch-free — a
    // data-dependent branch here would mispredict half the time on
    // random keys and dominate the descent cost.
    const size_t a =
        first_child + size_t{Earlier(heap_[first_child + 1], heap_[first_child])};
    const size_t b = first_child + 2 +
                     size_t{Earlier(heap_[first_child + 3], heap_[first_child + 2])};
    return Earlier(heap_[b], heap_[a]) ? b : a;
  }
  size_t best = first_child;
  for (size_t c = first_child + 1; c < n; ++c) {
    best = Earlier(heap_[c], heap_[best]) ? c : best;
  }
  return best;
}

void EventQueue::Reserve(size_t events) {
  heap_.reserve(events);
  free_slots_.reserve(events);
  const size_t chunks = (events + kChunkSize - 1) >> kChunkShift;
  chunks_.reserve(chunks);
  while (chunks_.size() < chunks) {
    chunks_.push_back(std::make_unique<Callback[]>(kChunkSize));
  }
}

EventQueue::Entry EventQueue::PopRoot() {
  const Entry top = heap_.front();
  const size_t n = heap_.size() - 1;
  if (n > 0) {
    // Floyd's variant: walk the root hole down along min-children to a
    // leaf (one comparison fewer per level than sifting the tail down),
    // drop the old tail there, and bubble it up — it rarely rises, since
    // a leaf almost always belongs near the bottom.
    const Entry tail = heap_[n];
    heap_.pop_back();
    size_t hole = 0;
    while (4 * hole + 1 < n) {
      const size_t best = MinChild(hole, n);
      heap_[hole] = heap_[best];
      hole = best;
    }
    heap_[hole] = tail;
    SiftUp(hole);
  } else {
    heap_.pop_back();
  }
  return top;
}

bool EventQueue::RunNext() {
  if (heap_.empty()) return false;
  const Entry entry = PopRoot();
  now_ = EntryTime(entry);
  ++dispatched_;
  // Sampled (not per-event) so tracing stays cheap on multi-million-event
  // runs; the counter still resolves queue buildups thousands long.
  if (tracer_ != nullptr && (dispatched_ & 1023u) == 0) {
    tracer_->HeapDepth(now_, heap_.size());
  }
  // Invoke in place: the chunked slab guarantees the slot's address stays
  // valid even if the callback schedules new events and grows the slab.
  // The slot is recycled only after the invoke, so a schedule from inside
  // the callback cannot overwrite the running callable.
  const uint32_t slot = EntrySlot(entry);
  Callback& cb = SlotRef(slot);
  cb();
  cb = nullptr;  // Destroy the capture now, as the seed did after dispatch.
  free_slots_.push_back(slot);
  return true;
}

uint64_t EventQueue::RunUntil(TimeMs until) {
  uint64_t n = 0;
  stopped_ = false;
  while (!heap_.empty() && !stopped_ && EntryTime(heap_.front()) <= until) {
    RunNext();
    ++n;
  }
  return n;
}

uint64_t EventQueue::Run() {
  return RunUntil(std::numeric_limits<TimeMs>::infinity());
}

}  // namespace rofs::sim
