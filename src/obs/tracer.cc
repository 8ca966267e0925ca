#include "obs/tracer.h"

namespace rofs::obs {

SimTracer::SimTracer(TraceBuffer* buffer, const double* now,
                     Registry* registry)
    : buffer_(buffer),
      now_(now),
      disk_queue_wait_ms_(registry->AddHistogram("disk.queue_wait_ms")),
      op_latency_ms_(registry->AddHistogram("op.latency_ms")) {}

Session::Session(const Options& options, const double* sim_now)
    : options_(options),
      buffer_(options.trace
                  ? std::make_unique<TraceBuffer>(options.trace_events)
                  : nullptr),
      tracer_(buffer_.get(), sim_now, &registry_),
      attribution_(&registry_) {}

void Session::ArmAll() {
  tracer_.Arm();
  attribution_.set_armed(true);
}

void Session::DisarmAll() {
  tracer_.Disarm();
  attribution_.set_armed(false);
}

uint64_t Session::DroppedSpans() const {
  return buffer_ != nullptr ? buffer_->dropped() : 0;
}

}  // namespace rofs::obs
