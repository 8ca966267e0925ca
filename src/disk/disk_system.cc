#include "disk/disk_system.h"

#include <algorithm>
#include <cassert>

#include "util/table.h"

namespace rofs::disk {

namespace {

uint64_t MinCapacityDu(const std::vector<DiskGeometry>& disks,
                       uint64_t du_bytes) {
  assert(!disks.empty());
  uint64_t min_cap = UINT64_MAX;
  for (const DiskGeometry& g : disks) {
    min_cap = std::min(min_cap, g.capacity_bytes() / du_bytes);
  }
  return min_cap;
}

}  // namespace

DiskSystem::DiskSystem(const DiskSystemConfig& config) : config_(config) {
  assert(!config_.disks.empty());
  assert(config_.disk_unit_bytes > 0);
  assert(config_.stripe_unit_bytes >= config_.disk_unit_bytes);
  assert(config_.stripe_unit_bytes % config_.disk_unit_bytes == 0);
  const uint64_t per_disk_du =
      MinCapacityDu(config_.disks, config_.disk_unit_bytes);
  layout_ = MakeLayout(config_.layout,
                       static_cast<uint32_t>(config_.disks.size()),
                       per_disk_du,
                       config_.stripe_unit_bytes / config_.disk_unit_bytes);
  disks_.reserve(config_.disks.size());
  for (const DiskGeometry& g : config_.disks) {
    disks_.emplace_back(g, config_.rotation_model);
  }
}

void DiskSystem::BindQueue(sim::EventQueue* queue) {
  assert(queue != nullptr);
  assert(queue_ == nullptr && "BindQueue must be called once");
  queue_ = queue;
  for (Disk& d : disks_) d.BindQueue(queue, config_.scheduler);
}

uint32_t DiskSystem::PickMirrorTarget(const DiskAccess& a) const {
  uint32_t target = a.disk;
  const uint32_t alt = static_cast<uint32_t>(a.alt_disk);
  if (predictable()) {
    // Serve from the replica that frees up first.
    if (disks_[alt].busy_until() < disks_[target].busy_until()) {
      target = alt;
    }
  } else {
    // busy_until only advances at dispatch here; compare queued work.
    if (disks_[alt].pending_load() < disks_[target].pending_load()) {
      target = alt;
    }
  }
  return target;
}

sim::TimeMs DiskSystem::Read(sim::TimeMs arrival, uint64_t start_du,
                             uint64_t n_du) {
  scratch_.clear();
  layout_->MapRead(start_du, n_du, &scratch_);
  logical_bytes_read_ += n_du * config_.disk_unit_bytes;
  return Submit(arrival, scratch_);
}

sim::TimeMs DiskSystem::Write(sim::TimeMs arrival, uint64_t start_du,
                              uint64_t n_du) {
  scratch_.clear();
  layout_->MapWrite(start_du, n_du, &scratch_);
  logical_bytes_written_ += n_du * config_.disk_unit_bytes;
  return Submit(arrival, scratch_);
}

sim::TimeMs DiskSystem::Submit(sim::TimeMs arrival,
                               const std::vector<DiskAccess>& accesses) {
  // Sync completion times require a predictable service order; reordering
  // schedulers must go through the group API.
  assert(predictable());
  sim::TimeMs completion = arrival;
  const uint64_t du = config_.disk_unit_bytes;
  for (const DiskAccess& a : accesses) {
    uint32_t target = a.disk;
    if (a.alt_disk >= 0 && !a.is_write) {
      // Mirrored read: serve from the less busy replica.
      target = PickMirrorTarget(a);
    }
    const sim::TimeMs done =
        dispatch_mode()
            ? disks_[target].Submit(arrival, a.offset_du * du,
                                    a.length_du * du, nullptr)
            : disks_[target].Access(arrival, a.offset_du * du,
                                    a.length_du * du);
    // The synchronous path commits each access inline, so the drive's
    // last_phases() breakdown belongs to exactly this access.
    if (attr_ != nullptr) {
      attr_->OnAccess(attr_->target(), disks_[target].last_phases());
    }
    completion = std::max(completion, done);
  }
  return completion;
}

uint32_t DiskSystem::OpenGroup(sim::TimeMs arrival, DoneFn on_done) {
  assert(dispatch_mode() && "the group API requires BindQueue");
  uint32_t group;
  if (free_group_ != kNoGroup) {
    group = free_group_;
    free_group_ = groups_[group].next_free;
  } else {
    groups_.emplace_back();
    group = static_cast<uint32_t>(groups_.size() - 1);
  }
  Group& g = groups_[group];
  g.on_done = std::move(on_done);
  g.max_done = arrival;
  g.outstanding = 0;
  g.open = true;
  g.target = attr_ != nullptr ? attr_->target() : obs::OpAttribution::Target{};
  return group;
}

void DiskSystem::GroupRead(uint32_t group, sim::TimeMs arrival,
                           uint64_t start_du, uint64_t n_du) {
  scratch_.clear();
  layout_->MapRead(start_du, n_du, &scratch_);
  logical_bytes_read_ += n_du * config_.disk_unit_bytes;
  SubmitGroup(group, arrival, scratch_);
}

void DiskSystem::GroupWrite(uint32_t group, sim::TimeMs arrival,
                            uint64_t start_du, uint64_t n_du) {
  scratch_.clear();
  layout_->MapWrite(start_du, n_du, &scratch_);
  logical_bytes_written_ += n_du * config_.disk_unit_bytes;
  SubmitGroup(group, arrival, scratch_);
}

void DiskSystem::SubmitGroup(uint32_t group, sim::TimeMs arrival,
                             const std::vector<DiskAccess>& accesses) {
  assert(groups_[group].open);
  const uint64_t du = config_.disk_unit_bytes;
  groups_[group].outstanding += static_cast<uint32_t>(accesses.size());
  for (const DiskAccess& a : accesses) {
    uint32_t target = a.disk;
    if (a.alt_disk >= 0 && !a.is_write) {
      target = PickMirrorTarget(a);
    }
    disks_[target].Submit(
        arrival, a.offset_du * du, a.length_du * du,
        [this, group](sim::TimeMs done, const obs::AccessPhases& p) {
          OnGroupAccessDone(group, done, p);
        });
  }
}

void DiskSystem::CloseGroup(uint32_t group) {
  Group& g = groups_[group];
  assert(g.open);
  g.open = false;
  if (g.outstanding == 0) FinishGroup(group);
}

void DiskSystem::OnGroupAccessDone(uint32_t group, sim::TimeMs done,
                                   const obs::AccessPhases& phases) {
  Group& g = groups_[group];
  if (attr_ != nullptr) attr_->OnAccess(g.target, phases);
  g.max_done = std::max(g.max_done, done);
  assert(g.outstanding > 0);
  if (--g.outstanding == 0 && !g.open) FinishGroup(group);
}

void DiskSystem::FinishGroup(uint32_t group) {
  DoneFn done = std::move(groups_[group].on_done);
  const sim::TimeMs max_done = groups_[group].max_done;
  const obs::OpAttribution::Target target = groups_[group].target;
  groups_[group].on_done = nullptr;
  groups_[group].next_free = free_group_;
  free_group_ = group;
  // The continuation may open new groups (reusing this slot) — invoke
  // after the slot is back on the free list. The op's completion callback
  // has no room to carry a ledger index, so the finishing target is
  // published for it to recover (OpAttribution::TakeActive).
  if (attr_ != nullptr) attr_->SetFinishing(target);
  if (done) done(max_done);
}

double DiskSystem::MaxSequentialBandwidthBytesPerMs() const {
  // All data disks streaming whole cylinders in parallel.
  double bw = 0.0;
  const uint32_t nd = layout_->data_disks();
  for (uint32_t i = 0; i < nd && i < disks_.size(); ++i) {
    bw += disks_[i].geometry().SequentialBandwidth();
  }
  return bw;
}

uint64_t DiskSystem::physical_bytes() const {
  uint64_t total = 0;
  for (const Disk& d : disks_) total += d.bytes_transferred();
  return total;
}

uint64_t DiskSystem::total_seeks() const {
  uint64_t total = 0;
  for (const Disk& d : disks_) total += d.seeks();
  return total;
}

void DiskSystem::ResetStats() {
  logical_bytes_read_ = 0;
  logical_bytes_written_ = 0;
  for (Disk& d : disks_) d.ResetStats();
}

std::string DiskSystem::DescribeConfig() const {
  std::string text = FormatString(
      "%zu disks, %s layout, capacity=%s, stripe=%s, du=%s, max_bw=%.2fMB/s",
      disks_.size(), LayoutKindToString(config_.layout).c_str(),
      FormatBytes(capacity_bytes()).c_str(),
      FormatBytes(config_.stripe_unit_bytes).c_str(),
      FormatBytes(config_.disk_unit_bytes).c_str(),
      MaxSequentialBandwidthBytesPerMs() * 1000.0 / (1024.0 * 1024.0));
  // The paper's implicit FCFS stays unannotated so banners match its
  // tables verbatim; only a departure from the paper is called out.
  if (config_.scheduler.policy != sched::Policy::kFcfs) {
    text += FormatString(", sched=%s", config_.scheduler.Label().c_str());
  }
  return text;
}

}  // namespace rofs::disk
