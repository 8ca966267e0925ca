#include "workload/op_generator.h"

#include <algorithm>
#include <cassert>

#include "util/table.h"
#include "util/units.h"

namespace rofs::workload {

OpGenerator::OpGenerator(const WorkloadSpec* workload,
                         fs::ReadOptimizedFs* fs, sim::EventQueue* queue,
                         OpGeneratorOptions options)
    : workload_(workload), fs_(fs), queue_(queue), options_(options),
      rng_(options.seed) {
  assert(workload_ != nullptr && fs_ != nullptr && queue_ != nullptr);
  files_by_type_.resize(workload_->types.size());
  op_stats_.resize(workload_->types.size());
  if (workload_->zipf_theta > 0.0) {
    zipf_.reserve(workload_->types.size());
    for (const FileTypeSpec& t : workload_->types) {
      zipf_.emplace_back(t.num_files, workload_->zipf_theta);
    }
  }
}

void OpGenerator::ResetStats() {
  ops_executed_ = 0;
  op_latency_ms_.Reset();
  for (auto& per_type : op_stats_) {
    for (OpStats& stats : per_type) stats = OpStats{};
  }
}

std::string OpGenerator::StatsReport() const {
  Table table({"Type", "Op", "Count", "Bytes", "Lat mean", "Lat p99"});
  for (size_t t = 0; t < op_stats_.size(); ++t) {
    for (size_t k = 0; k < op_stats_[t].size(); ++k) {
      const OpStats& stats = op_stats_[t][k];
      if (stats.count == 0) continue;
      table.AddRow({workload_->types[t].name,
                    OpKindToString(static_cast<OpKind>(k)),
                    FormatString("%llu",
                                 static_cast<unsigned long long>(stats.count)),
                    FormatBytes(stats.bytes),
                    FormatString("%.1fms", stats.latency_ms.Mean()),
                    FormatString("%.1fms", stats.latency_ms.Percentile(99))});
    }
  }
  return table.ToString();
}

Status OpGenerator::CreateInitialFiles() {
  // Register every file first (so descriptor placement round-robins the
  // way a real population would), then allocate them in an interleaved
  // random order so small and large files mingle on disk rather than
  // forming one segregated band per type.
  struct Pending {
    size_t type;
    fs::FileId id;
  };
  std::vector<Pending> pending;
  for (size_t t = 0; t < workload_->types.size(); ++t) {
    const FileTypeSpec& type = workload_->types[t];
    files_by_type_[t].reserve(type.num_files);
    for (uint32_t i = 0; i < type.num_files; ++i) {
      const fs::FileId id = fs_->Create(type.alloc_size_bytes);
      files_by_type_[t].push_back(id);
      pending.push_back(Pending{t, id});
    }
  }
  // Fisher-Yates shuffle with the generator's deterministic RNG.
  for (size_t i = pending.size(); i > 1; --i) {
    std::swap(pending[i - 1], pending[rng_.UniformInt(0, i - 1)]);
  }
  for (const Pending& p : pending) {
    const FileTypeSpec& type = workload_->types[p.type];
    const uint64_t size = type.DrawInitialBytes(rng_);
    sim::TimeMs done = 0;
    const Status status = fs_->Extend(p.id, size, /*arrival=*/0.0, &done);
    if (!status.ok()) {
      if (status.IsResourceExhausted()) {
        ++disk_full_count_;
        if (on_disk_full) on_disk_full();
      }
      return status;
    }
  }
  return Status::OK();
}

void OpGenerator::ScheduleUserStreams() {
  for (size_t t = 0; t < workload_->types.size(); ++t) {
    const FileTypeSpec& type = workload_->types[t];
    const double spread =
        static_cast<double>(type.num_users) * type.hit_frequency_ms;
    for (uint32_t u = 0; u < type.num_users; ++u) {
      const sim::TimeMs start = queue_->now() + rng_.Uniform(0.0, spread);
      queue_->Schedule(start, [this, t] {
        RunUserEvent(t, /*is_arrival=*/false);
      });
    }
  }
}

void OpGenerator::ScheduleNext(size_t type_index, sim::TimeMs next) {
  queue_->Schedule(next, [this, type_index] {
    RunUserEvent(type_index, /*is_arrival=*/false);
  });
}

OpKind OpGenerator::DrawOpForMode(const FileTypeSpec& type) {
  switch (options_.mode) {
    case OpMode::kApplication:
      return type.DrawOp(rng_);
    case OpMode::kAllocation:
      return type.DrawAllocOp(rng_);
    case OpMode::kFill: {
      // Aging churn biased toward growth so utilization climbs into the
      // measurement band.
      const OpKind op = type.DrawAllocOp(rng_);
      if (op != OpKind::kExtend && rng_.Bernoulli(0.5)) {
        return OpKind::kExtend;
      }
      return op;
    }
    case OpMode::kSequential:
      return type.DrawSequentialOp(rng_);
  }
  return OpKind::kRead;
}

void OpGenerator::RunUserEvent(size_t type_index, bool is_arrival) {
  // Once open-loop injection starts, think-time events still in flight
  // from the closed streams fire here and die without executing.
  if (arrivals_ != nullptr && !is_arrival) return;
  const FileTypeSpec& type = workload_->types[type_index];
  const auto& ids = files_by_type_[type_index];
  const fs::FileId id = zipf_.empty()
                            ? ids[rng_.UniformInt(0, ids.size() - 1)]
                            : ids[zipf_[type_index].Next(rng_)];
  const sim::TimeMs now = queue_->now();
  const OpKind op = DrawOpForMode(type);

  if (options_.async) {
    RunUserEventAsync(type_index, is_arrival, id, op, now);
    return;
  }

  uint64_t bytes_moved = 0;
  const uint32_t ledger =
      attr_ != nullptr ? attr_->BeginOp() : obs::OpAttribution::kNoLedger;
  const sim::TimeMs done = ExecuteOp(type_index, id, op, now, &bytes_moved);
  if (attr_ != nullptr) {
    attr_->ClearTarget();
    attr_->FoldOp(ledger, done - now);
  }
  ++ops_executed_;
  op_latency_ms_.Add(done - now);
  OpStats& stats = op_stats_[type_index][static_cast<size_t>(op)];
  ++stats.count;
  stats.bytes += bytes_moved;
  stats.latency_ms.Add(done - now);
  if (on_op) {
    on_op(OpRecord{now, done, type_index, op, id, bytes_moved});
  }
  if (bytes_moved > 0 && on_bytes_moved) {
    // Throughput is credited at completion time. The callback is captured
    // by value so an operation still in flight when a measurement phase
    // ends reports to the tracker that was active when it was issued.
    if (done > now) {
      auto callback = on_bytes_moved;
      queue_->Schedule(done, [callback, bytes_moved, done] {
        callback(bytes_moved, done);
      });
    } else {
      on_bytes_moved(bytes_moved, done);
    }
  }

  if (is_arrival) {
    // No rescheduling: the arrival chain drives injection. Completion is
    // accounted when the op's simulated completion time is reached.
    if (done > now) {
      queue_->Schedule(done, [this] { OnOpenOpComplete(); });
    } else {
      OnOpenOpComplete();
    }
    return;
  }

  // "The operation completion time is added to an exponentially
  // distributed value with mean equal to process time and an event is
  // scheduled at that newly calculated time."
  const sim::TimeMs next = done + rng_.Exponential(type.process_time_ms);
  if (attr_ != nullptr) attr_->RecordThink(next - done);
  ScheduleNext(type_index, next);
}

void OpGenerator::StartOpenLoop(const ArrivalSpec& spec) {
  if (arrivals_ != nullptr) return;
  assert(spec.open());
  arrivals_ = std::make_unique<ArrivalProcess>(spec);
  type_user_cum_.clear();
  type_user_cum_.reserve(workload_->types.size());
  total_users_ = 0;
  for (const FileTypeSpec& t : workload_->types) {
    total_users_ += t.num_users;
    type_user_cum_.push_back(total_users_);
  }
  ScheduleNextArrival();
}

void OpGenerator::ScheduleNextArrival() {
  const sim::TimeMs t = queue_->now() + arrivals_->NextGapMs(rng_);
  queue_->Schedule(t, [this] { RunArrival(); });
}

void OpGenerator::RunArrival() {
  ++open_offered_;
  ++open_pending_;
  open_pending_peak_ = std::max(open_pending_peak_, open_pending_);
  // Pick the type with probability proportional to its user population,
  // so a multi-type workload keeps the closed mix's per-type share.
  size_t t = 0;
  if (workload_->types.size() > 1) {
    const uint64_t u = rng_.UniformInt(0, total_users_ - 1);
    while (type_user_cum_[t] <= u) ++t;
  }
  RunUserEvent(t, /*is_arrival=*/true);
  ScheduleNextArrival();
}

void OpGenerator::OnOpenOpComplete() {
  ++open_completed_;
  --open_pending_;
}

void OpGenerator::RunUserEventAsync(size_t type_index, bool is_arrival,
                                    fs::FileId id, OpKind op,
                                    sim::TimeMs now) {
  const FileTypeSpec& type = workload_->types[type_index];
  const fs::File& f = fs_->file(id);
  // The completion callback has no room to carry the ledger index; it is
  // recovered at completion via the attribution's finishing handshake
  // (OpAttribution::TakeActive in OnAsyncOpDone).
  if (attr_ != nullptr) attr_->BeginOp();

  // Issue-time half: every RNG draw and synchronous side effect happens
  // here, in exactly ExecuteOp's order, so sync and async runs issue an
  // identical operation stream.
  uint64_t bytes_moved = 0;
  bool has_io = false;
  bool is_write = false;
  uint64_t offset = 0;
  uint64_t size = 0;

  switch (op) {
    case OpKind::kRead:
    case OpKind::kWrite: {
      if (options_.mode == OpMode::kSequential) {
        // "Each read or write is to an entire file."
        size = f.logical_bytes;
      } else if (f.logical_bytes == 0) {
        break;  // Nothing to transfer.
      } else if (type.access == AccessPattern::kRandom) {
        size = type.DrawRwBytes(rng_);
        const uint64_t slots = std::max<uint64_t>(1, f.logical_bytes / size);
        offset = size * rng_.UniformInt(0, slots - 1);
        offset = std::min(offset, f.logical_bytes - 1);
      } else {
        size = type.DrawRwBytes(rng_);
        offset = f.cursor_bytes >= f.logical_bytes ? 0 : f.cursor_bytes;
        fs_->mutable_file(id).cursor_bytes = offset + size;
      }
      if (size == 0) break;
      bytes_moved += std::min(size, f.logical_bytes - offset);
      has_io = true;
      is_write = op == OpKind::kWrite;
      break;
    }
    case OpKind::kExtend: {
      if (fs_->SpaceUtilization() > options_.upper_bound_util) {
        fs_->Truncate(id, type.truncate_bytes);
        break;
      }
      has_io = PrepareExtendAsync(id, type.DrawExtendBytes(rng_), &offset,
                                  &size, &bytes_moved);
      is_write = true;
      break;
    }
    case OpKind::kTruncate: {
      fs_->Truncate(id, type.truncate_bytes);
      break;
    }
    case OpKind::kDelete: {
      fs_->Delete(id);
      fs_->Recreate(id);
      has_io = PrepareExtendAsync(id, type.DrawInitialBytes(rng_), &offset,
                                  &size, &bytes_moved);
      is_write = true;
      break;
    }
  }
  // The think time is drawn at issue (keeping the RNG stream in the sync
  // path's order) and applied from the eventual completion time. Open-loop
  // arrivals have no think time — the sync path skips the draw too.
  const double think_ms =
      is_arrival ? 0.0 : rng_.Exponential(type.process_time_ms);

  if (!has_io) {
    OnAsyncOpDone(type_index, is_arrival, op, id, now, bytes_moved, think_ms,
                  now);
    return;
  }
  // The op kind (3 bits) shares a word with the type index so the capture
  // fits the DoneFn inline buffer exactly (48 bytes, no allocation).
  const uint32_t op_t = (static_cast<uint32_t>(type_index) << 3) |
                        static_cast<uint32_t>(op);
  auto finish = [this, op_t, is_arrival, id, now, bytes_moved,
                 think_ms](sim::TimeMs done) {
    OnAsyncOpDone(op_t >> 3, is_arrival, static_cast<OpKind>(op_t & 7u), id,
                  now, bytes_moved, think_ms, done);
  };
  if (is_write) {
    fs_->WriteAsync(id, offset, size, now, std::move(finish));
  } else {
    fs_->ReadAsync(id, offset, size, now, std::move(finish));
  }
  // The op's issue stack has unwound; a still-deferred completion finds
  // its ledger through the finishing handshake, not the current target.
  if (attr_ != nullptr) attr_->ClearTarget();
}

bool OpGenerator::PrepareExtendAsync(fs::FileId id, uint64_t bytes,
                                     uint64_t* offset, uint64_t* size,
                                     uint64_t* bytes_moved) {
  const Status status = fs_->ExtendAlloc(id, bytes, offset, size);
  *bytes_moved += *size;  // ExtendAlloc reports the logical growth.
  if (status.IsResourceExhausted()) {
    ++disk_full_count_;
    if (on_disk_full) on_disk_full();
  }
  return *size > 0;
}

void OpGenerator::OnAsyncOpDone(size_t type_index, bool is_arrival,
                                OpKind op, fs::FileId id, sim::TimeMs issued,
                                uint64_t bytes_moved, double think_ms,
                                sim::TimeMs done) {
  if (attr_ != nullptr) {
    const obs::OpAttribution::Target t = attr_->TakeActive();
    attr_->FoldOp(t.ledger, done - issued);
    if (!is_arrival) attr_->RecordThink(think_ms);
  }
  ++ops_executed_;
  op_latency_ms_.Add(done - issued);
  OpStats& stats = op_stats_[type_index][static_cast<size_t>(op)];
  ++stats.count;
  stats.bytes += bytes_moved;
  stats.latency_ms.Add(done - issued);
  if (on_op) {
    on_op(OpRecord{issued, done, type_index, op, id, bytes_moved});
  }
  if (bytes_moved > 0 && on_bytes_moved) {
    // We are already at the completion instant; credit directly.
    on_bytes_moved(bytes_moved, done);
  }
  if (is_arrival) {
    OnOpenOpComplete();
    return;
  }
  const sim::TimeMs next = done + think_ms;
  ScheduleNext(type_index, next);
}

sim::TimeMs OpGenerator::DoExtend(const FileTypeSpec& type, fs::FileId id,
                                  uint64_t bytes, sim::TimeMs now,
                                  uint64_t* bytes_moved) {
  (void)type;
  const uint64_t before = fs_->file(id).logical_bytes;
  sim::TimeMs done = now;
  const Status status = fs_->Extend(id, bytes, now, &done);
  *bytes_moved += fs_->file(id).logical_bytes - before;
  if (status.IsResourceExhausted()) {
    ++disk_full_count_;
    if (on_disk_full) on_disk_full();
  }
  return done;
}

sim::TimeMs OpGenerator::ExecuteOp(size_t type_index, fs::FileId id,
                                   OpKind op, sim::TimeMs now,
                                   uint64_t* bytes_moved) {
  const FileTypeSpec& type = workload_->types[type_index];
  const fs::File& f = fs_->file(id);

  switch (op) {
    case OpKind::kRead:
    case OpKind::kWrite: {
      uint64_t offset = 0;
      uint64_t size = 0;
      if (options_.mode == OpMode::kSequential) {
        // "Each read or write is to an entire file."
        size = f.logical_bytes;
      } else if (f.logical_bytes == 0) {
        return now;  // Nothing to transfer.
      } else if (type.access == AccessPattern::kRandom) {
        size = type.DrawRwBytes(rng_);
        const uint64_t slots = std::max<uint64_t>(1, f.logical_bytes / size);
        offset = size * rng_.UniformInt(0, slots - 1);
        offset = std::min(offset, f.logical_bytes - 1);
      } else {
        size = type.DrawRwBytes(rng_);
        offset = f.cursor_bytes >= f.logical_bytes ? 0 : f.cursor_bytes;
        fs_->mutable_file(id).cursor_bytes = offset + size;
      }
      if (size == 0) return now;
      *bytes_moved += std::min(size, f.logical_bytes - offset);
      return op == OpKind::kRead ? fs_->Read(id, offset, size, now)
                                 : fs_->Write(id, offset, size, now);
    }
    case OpKind::kExtend: {
      if (fs_->SpaceUtilization() > options_.upper_bound_util) {
        // "Any extend operation occurring when the disk utilization is
        // greater than M is converted into a truncate operation."
        fs_->Truncate(id, type.truncate_bytes);
        return now;
      }
      return DoExtend(type, id, type.DrawExtendBytes(rng_), now, bytes_moved);
    }
    case OpKind::kTruncate: {
      fs_->Truncate(id, type.truncate_bytes);
      return now;
    }
    case OpKind::kDelete: {
      // Delete and recreate: the paper's small files are "periodically
      // deleted and recreated"; the new instance is written in full.
      fs_->Delete(id);
      fs_->Recreate(id);
      return DoExtend(type, id, type.DrawInitialBytes(rng_), now,
                      bytes_moved);
    }
  }
  return now;
}

}  // namespace rofs::workload
