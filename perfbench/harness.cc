#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <utility>

#include "alloc/allocator.h"
#include "alloc/extent_allocator.h"
#include "alloc/fixed_block_allocator.h"
#include "alloc/restricted_buddy.h"
#include "fs/cache_policy.h"
#include "sched/scheduler.h"
#include "sim/event_queue.h"
#include "util/table.h"
#include "util/units.h"
#include "workload/op_generator.h"
#include "workload/workloads.h"

namespace rofs::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : (values[mid - 1] + values[mid]) / 2;
}

// The probe's size: a 1024-event heap over a hash table of at most 1024
// keys, 8000 steps per run (about 1 ms on a 2.1 GHz Xeon).
constexpr size_t kProbeEvents = 1024;
constexpr uint32_t kProbeKeys = 1024;
constexpr int kProbeSteps = 8000;

/// The set-up boundary of one run: the first operation OpGenerator::on_op
/// reports while the generator is out of fill mode. Operations before it
/// are set-up (initial files and the fill into the band); from it on the
/// run is measuring (warm-up and measured windows).
struct Boundary {
  Clock::time_point start;
  Clock::time_point at;
  bool measuring = false;
  uint64_t setup_ops = 0;
  uint64_t measure_ops = 0;
  /// Sum of simulated latency (completed - issued) of measuring ops.
  double measure_latency_ms = 0;
  /// Probe runs of each phase, and the host time all probe runs took so
  /// far and up to the boundary, which the run's timings leave out.
  SpeedProbe probe;
  uint64_t ops_since_probe = 0;
  std::vector<double> setup_probes_s;
  std::vector<double> measure_probes_s;
  double probes_total_s = 0;
  double setup_probes_total_s = 0;

  void RunProbe() {
    const Clock::time_point begin = Clock::now();
    (measuring ? measure_probes_s : setup_probes_s).push_back(probe.Run());
    probes_total_s += Seconds(Clock::now() - begin);
    ops_since_probe = 0;
  }
  /// Counts one op; runs the probe every kProbeEveryOps ops.
  void Tick() {
    if (++ops_since_probe == kProbeEveryOps) RunProbe();
  }
  /// Marks the first measuring op, after a last set-up probe run.
  void Cross() {
    RunProbe();
    setup_probes_total_s = probes_total_s;
    measuring = true;
    at = Clock::now();
  }
};

/// Host-time spans and call counts of one allocator phase.
struct AllocPhase {
  uint64_t extend_calls = 0;
  uint64_t extend_failed = 0;
  /// Every forwarded call of the phase (extend, truncate, delete, create).
  uint64_t calls = 0;
  /// Host seconds spent inside the forwarded calls.
  double self_s = 0;
};

/// What a TimingAllocator records. Owned by the harness, so it outlives
/// the allocator, which the Experiment destroys with its simulation.
struct AllocLedger {
  AllocPhase setup;
  AllocPhase measure;
  uint64_t free_calls = 0;
  uint64_t freed_extents = 0;
  /// Allocator utilization when the run crossed the set-up boundary.
  double fill_util = -1;
  /// Set when the allocator is destroyed: CheckConsistency() == free_du().
  bool consistent = false;
};

/// Allocator decorator for traced runs: forwards every call to the inner
/// policy, times it with a steady clock into the phase the Boundary is
/// in, and mirrors the inner policy's stats() so results are unchanged.
/// On destruction it checks free-space conservation.
class TimingAllocator : public alloc::Allocator {
 public:
  TimingAllocator(std::unique_ptr<alloc::Allocator> inner,
                  const Boundary* boundary, AllocLedger* ledger);
  ~TimingAllocator() override;

  std::string name() const override { return inner_->name(); }
  uint64_t free_du() const override { return inner_->free_du(); }
  void OnCreateFile(alloc::FileAllocState* f) override;
  Status Extend(alloc::FileAllocState* f, uint64_t want_du) override;
  uint64_t TruncateTail(alloc::FileAllocState* f, uint64_t n_du) override;
  void DeleteFile(alloc::FileAllocState* f) override;
  uint64_t CheckConsistency() const override {
    return inner_->CheckConsistency();
  }

 protected:
  /// Never reached: TruncateTail and DeleteFile forward whole calls.
  void FreeRun(uint64_t start_du, uint64_t len_du) override;

 private:
  /// Phase the next call belongs to; notes the fill utilization on the
  /// first call past the boundary.
  AllocPhase& Phase();
  /// Closes a call's span and mirrors the inner counters.
  void Finish(AllocPhase& phase, Clock::time_point begin);

  std::unique_ptr<alloc::Allocator> inner_;
  const Boundary* boundary_;
  AllocLedger* ledger_;
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// The paper's TP workload with every user population multiplied by
/// `factor` (more request streams, deeper disk queues).
workload::WorkloadSpec ScaledTp(uint32_t factor) {
  workload::WorkloadSpec spec =
      workload::MakeWorkload(workload::WorkloadKind::kTransactionProcessing);
  for (workload::FileTypeSpec& type : spec.types) type.num_users *= factor;
  return spec;
}

/// Figure 8's small-file churn mix at pressure 2 with Zipf(0.99) picks:
/// 300 files, 8 users.
workload::WorkloadSpec ZipfCacheWorkload() {
  workload::WorkloadSpec w;
  w.name = "cache-zipf";
  w.zipf_theta = 0.99;
  workload::FileTypeSpec files;
  files.name = "files";
  files.num_files = 300;
  files.num_users = 8;
  files.process_time_ms = 20;
  files.hit_frequency_ms = 20;
  files.rw_bytes_mean = KiB(8);
  files.extend_bytes_mean = KiB(8);
  files.truncate_bytes = KiB(8);
  files.initial_bytes_mean = KiB(64);
  files.initial_bytes_dev = KiB(16);
  files.read_ratio = 0.55;
  files.write_ratio = 0.15;
  files.extend_ratio = 0.20;
  files.delete_ratio = 0.5;
  files.access = workload::AccessPattern::kRandom;
  w.types.push_back(files);
  return w;
}

exp::Experiment::AllocatorFactory ExtentFactory(int num_ranges) {
  alloc::ExtentAllocatorConfig cfg;
  cfg.range_means_du.clear();
  for (uint64_t bytes : workload::ExtentRangeMeansBytes(
           workload::WorkloadKind::kTransactionProcessing, num_ranges)) {
    cfg.range_means_du.push_back(bytes / kKiB);
  }
  cfg.fit = alloc::FitPolicy::kFirstFit;
  return [cfg](uint64_t total_du) -> std::unique_ptr<alloc::Allocator> {
    return std::make_unique<alloc::ExtentAllocator>(total_du, cfg);
  };
}

/// Simulated metric from a run's obs snapshot; 0 when absent (the cache
/// gauges exist only when the cache is on).
double ObsValue(const exp::PerfResult& r, const std::string& name) {
  for (const auto& [key, value] : r.obs_metrics) {
    if (key == name) return value;
  }
  return 0.0;
}

bool HasObs(const exp::PerfResult& r, const std::string& name) {
  for (const auto& entry : r.obs_metrics) {
    if (entry.first == name) return true;
  }
  return false;
}

/// Invariants of a traced run's simulated counters.
void CheckObs(const exp::PerfResult& r, std::vector<std::string>* failures) {
  if (HasObs(r, "cache.requests") &&
      ObsValue(r, "cache.hits") + ObsValue(r, "cache.misses") !=
          ObsValue(r, "cache.requests")) {
    failures->push_back("cache.hits + cache.misses != cache.requests");
  }
  const double busy = ObsValue(r, "disk.busy_ms");
  const double parts = ObsValue(r, "disk.seek_ms") +
                       ObsValue(r, "disk.rotation_ms") +
                       ObsValue(r, "disk.transfer_ms");
  if (std::fabs(busy - parts) > 1e-9 * std::max(1.0, busy)) {
    failures->push_back(FormatString(
        "disk.busy_ms %.17g != seek + rotation + transfer %.17g", busy,
        parts));
  }
}

void AddAllocPhase(const char* phase, const AllocPhase& p,
                   std::vector<Metric>* out) {
  const std::string prefix = std::string("alloc.") + phase + ".";
  out->push_back({prefix + "extend_calls",
                  static_cast<double>(p.extend_calls), "count"});
  out->push_back({prefix + "extend_failed",
                  static_cast<double>(p.extend_failed), "count"});
  out->push_back(
      {prefix + "extend_ok_ratio",
       Ratio(static_cast<double>(p.extend_calls - p.extend_failed),
             static_cast<double>(p.extend_calls)),
       "ratio"});
  out->push_back({prefix + "self_s", p.self_s, "s"});
}

TimingAllocator::TimingAllocator(std::unique_ptr<alloc::Allocator> inner,
                                 const Boundary* boundary,
                                 AllocLedger* ledger)
    : alloc::Allocator(inner->total_du()),
      inner_(std::move(inner)),
      boundary_(boundary),
      ledger_(ledger) {
  stats_ = inner_->stats();
}

TimingAllocator::~TimingAllocator() {
  if (ledger_->fill_util < 0) ledger_->fill_util = Utilization();
  ledger_->consistent = inner_->CheckConsistency() == inner_->free_du();
}

AllocPhase& TimingAllocator::Phase() {
  if (!boundary_->measuring) return ledger_->setup;
  if (ledger_->fill_util < 0) ledger_->fill_util = Utilization();
  return ledger_->measure;
}

void TimingAllocator::Finish(AllocPhase& phase, Clock::time_point begin) {
  phase.self_s += Seconds(Clock::now() - begin);
  ++phase.calls;
  stats_ = inner_->stats();
}

void TimingAllocator::OnCreateFile(alloc::FileAllocState* f) {
  AllocPhase& phase = Phase();
  const Clock::time_point begin = Clock::now();
  inner_->OnCreateFile(f);
  Finish(phase, begin);
}

Status TimingAllocator::Extend(alloc::FileAllocState* f, uint64_t want_du) {
  AllocPhase& phase = Phase();
  const Clock::time_point begin = Clock::now();
  Status status = inner_->Extend(f, want_du);
  Finish(phase, begin);
  ++phase.extend_calls;
  if (!status.ok()) ++phase.extend_failed;
  return status;
}

uint64_t TimingAllocator::TruncateTail(alloc::FileAllocState* f,
                                       uint64_t n_du) {
  AllocPhase& phase = Phase();
  const size_t extents = f->extents.size();
  const Clock::time_point begin = Clock::now();
  const uint64_t freed = inner_->TruncateTail(f, n_du);
  Finish(phase, begin);
  ++ledger_->free_calls;
  ledger_->freed_extents += extents - f->extents.size();
  return freed;
}

void TimingAllocator::DeleteFile(alloc::FileAllocState* f) {
  AllocPhase& phase = Phase();
  const size_t extents = f->extents.size();
  const Clock::time_point begin = Clock::now();
  inner_->DeleteFile(f);
  Finish(phase, begin);
  ++ledger_->free_calls;
  ledger_->freed_extents += extents - f->extents.size();
}

void TimingAllocator::FreeRun(uint64_t, uint64_t) { std::abort(); }

}  // namespace

SpeedProbe::SpeedProbe() {
  heap_.reserve(kProbeEvents);
  for (size_t i = 0; i < kProbeEvents; ++i) {
    heap_.push_back({Next() % 1'000'000, static_cast<uint32_t>(Next())});
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
}

uint64_t SpeedProbe::Next() {
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  return rng_;
}

double SpeedProbe::Run() {
  const Clock::time_point begin = Clock::now();
  for (int i = 0; i < kProbeSteps; ++i) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const auto [when, id] = heap_.back();
    const uint32_t key = id % kProbeKeys;
    auto it = table_.find(key);
    if (it == table_.end()) {
      table_.emplace(key, when);
    } else if (Next() & 1) {
      table_.erase(it);
    } else {
      it->second += when;
    }
    heap_.back() = {when + 1 + Next() % 1000, static_cast<uint32_t>(Next())};
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
  return Seconds(Clock::now() - begin);
}

StatusOr<Case> MakeCase(const std::string& name, uint64_t seed) {
  Case c;
  c.config.seed = seed + 1;
  // Fixed measured windows (min == max): every seed measures the same
  // simulated span, long enough that measurement is not a rounding error
  // beside set-up.
  if (name == "paper_tp_extent") {
    c.workload =
        workload::MakeWorkload(workload::WorkloadKind::kTransactionProcessing);
    c.factory = ExtentFactory(3);
    c.disk = disk::DiskSystemConfig::Array(8);
    c.pair = true;
    c.config.min_measure_ms = c.config.max_measure_ms = 28'800'000;
    c.config.seq_min_measure_ms = c.config.seq_max_measure_ms = 7'200'000;
  } else if (name == "deep_cscan") {
    c.workload = ScaledTp(16);
    const uint64_t block_du =
        workload::FixedBlockBytesFor(
            workload::WorkloadKind::kTransactionProcessing) /
        kKiB;
    c.factory = [block_du](uint64_t total_du) {
      return std::unique_ptr<alloc::Allocator>(
          std::make_unique<alloc::FixedBlockAllocator>(total_du, block_du));
    };
    c.disk = disk::DiskSystemConfig::Array(8);
    ROFS_ASSIGN_OR_RETURN(c.disk.scheduler, sched::ParseSchedulerSpec("cscan"));
    c.config.min_measure_ms = c.config.max_measure_ms = 7'200'000;
  } else if (name == "cache_zipf_wb") {
    c.workload = ZipfCacheWorkload();
    alloc::RestrictedBuddyConfig cfg;
    cfg.block_sizes_du = {1, 8, 64, 1024};
    cfg.grow_factor = 1;
    cfg.clustered = false;
    c.factory = [cfg](uint64_t total_du) {
      return std::unique_ptr<alloc::Allocator>(
          std::make_unique<alloc::RestrictedBuddyAllocator>(total_du, cfg));
    };
    c.disk = disk::DiskSystemConfig::Array(2);
    for (disk::DiskGeometry& g : c.disk.disks) g.cylinders = 200;
    c.config.fs_options.cache_bytes = MiB(8);
    ROFS_ASSIGN_OR_RETURN(c.config.fs_options.cache_policy,
                          fs::ParseCachePolicySpec("arc"));
    c.config.fs_options.readahead_pages = 4;
    c.config.fs_options.writeback_dirty_max = 64;
    // The churn plateaus at 56-61 % utilization, so figure 8's 90 % band
    // is never reached and its fill ends on the stall detector after a
    // seed-dependent number of chunks (5.6-14.7 s of host time across
    // seeds 1-5 on a 4-vCPU 2.1 GHz VM). A reachable band and a 1000 s
    // chunk make the set-up exactly one chunk of churn, ending on the
    // plateau.
    c.config.fill_lower = 0.50;
    c.config.sample_interval_ms = 100'000;
    c.config.min_measure_ms = c.config.max_measure_ms = 14'400'000;
  } else {
    return Status::InvalidArgument("unknown workload: " + name);
  }
  return c;
}

std::string Digest(const std::vector<exp::PerfResult>& results,
                   uint64_t events) {
  uint64_t ops = 0, bytes = 0, disk_full = 0;
  std::string throughput;
  for (const exp::PerfResult& r : results) {
    ops += r.ops_executed;
    bytes += r.bytes_moved;
    disk_full += r.disk_full_events;
    throughput += FormatString("%s%.17g", throughput.empty() ? "" : "/",
                               r.utilization_of_max);
  }
  // Allocator counters are cumulative over the simulation, so the last
  // result holds the run's totals.
  const alloc::AllocatorStats& a = results.back().alloc_stats;
  return FormatString(
      "ops=%llu bytes_moved=%llu throughput_of_max=%s disk_full_events=%llu "
      "alloc_calls=%llu alloc_failed=%llu events=%llu",
      static_cast<unsigned long long>(ops),
      static_cast<unsigned long long>(bytes), throughput.c_str(),
      static_cast<unsigned long long>(disk_full),
      static_cast<unsigned long long>(a.alloc_calls),
      static_cast<unsigned long long>(a.failed_allocs),
      static_cast<unsigned long long>(events));
}

RunResult RunOnce(const Case& c, bool traced) {
  RunResult run;
  Boundary boundary;
  AllocLedger ledger;
  exp::Experiment::AllocatorFactory factory = c.factory;
  if (traced) {
    factory = [&c, &boundary, &ledger](uint64_t total_du) {
      return std::unique_ptr<alloc::Allocator>(
          std::make_unique<TimingAllocator>(c.factory(total_du), &boundary,
                                            &ledger));
    };
  }
  exp::ExperimentConfig config = c.config;
  config.obs.metrics = traced;
  exp::Experiment experiment(c.workload, factory, c.disk, config);
  experiment.set_instrument([&boundary](workload::OpGenerator* gen) {
    gen->on_op = [gen, &boundary](const workload::OpRecord& r) {
      if (!boundary.measuring) {
        if (gen->mode() == workload::OpMode::kFill) {
          ++boundary.setup_ops;
          boundary.Tick();
          return;
        }
        boundary.Cross();
      }
      ++boundary.measure_ops;
      boundary.measure_latency_ms += r.completed - r.issued;
      boundary.Tick();
    };
  });

  const uint64_t events_before = sim::RetiredDispatchedEvents();
  boundary.start = Clock::now();
  std::vector<exp::PerfResult> results;
  if (c.pair) {
    auto pair = experiment.RunPerformancePair();
    if (pair.ok()) results = {pair->application, pair->sequential};
    run.status = pair.status();
  } else {
    auto app = experiment.RunApplicationTest();
    if (app.ok()) results = {*app};
    run.status = app.status();
  }
  const Clock::time_point end = Clock::now();
  if (!run.status.ok()) return run;
  run.events = sim::RetiredDispatchedEvents() - events_before;
  run.wall_s = Seconds(end - boundary.start) - boundary.probes_total_s;
  // A last probe run, so that the measurement has one however short it is.
  boundary.RunProbe();
  run.setup_probe_s = Median(boundary.setup_probes_s);
  run.measure_probe_s = Median(boundary.measure_probes_s);
  if (boundary.measuring) {
    run.setup_s = Seconds(boundary.at - boundary.start) -
                  boundary.setup_probes_total_s;
  } else {
    run.setup_s = run.wall_s;
    run.check_failures.push_back("run never left the fill phase");
  }

  uint64_t disk_full = 0;
  double measured_sim_ms = 0;
  bool stabilized = true;
  for (const exp::PerfResult& r : results) {
    run.measured_ops += r.ops_executed;
    disk_full += r.disk_full_events;
    measured_sim_ms += r.measured_ms;
    stabilized = stabilized && r.stabilized;
  }
  const exp::PerfResult& last = results.back();
  run.digest = Digest(results, run.events);
  if (!traced) return run;

  CheckObs(last, &run.check_failures);
  if (!ledger.consistent) {
    run.check_failures.push_back(
        "allocator CheckConsistency() != free_du() at run end");
  }
  std::vector<Metric>& m = run.layers;
  m.push_back({"exp.setup_s", run.setup_s, "s"});
  m.push_back({"exp.measure_s", run.wall_s - run.setup_s, "s"});
  m.push_back({"exp.measured_sim_s", measured_sim_ms / 1000.0, "s"});
  m.push_back({"exp.stabilized", stabilized ? 1.0 : 0.0, "bool"});
  m.push_back({"exp.fill_util", ledger.fill_util, "ratio"});
  AddAllocPhase("setup", ledger.setup, &m);
  AddAllocPhase("measure", ledger.measure, &m);
  m.push_back(
      {"alloc.free_calls", static_cast<double>(ledger.free_calls), "count"});
  m.push_back({"alloc.freed_extents",
               static_cast<double>(ledger.freed_extents), "count"});
  m.push_back({"alloc.ns_per_call",
               Ratio((ledger.setup.self_s + ledger.measure.self_s) * 1e9,
                     static_cast<double>(ledger.setup.calls +
                                         ledger.measure.calls)),
               "ns"});
  m.push_back({"workload.setup.ops", static_cast<double>(boundary.setup_ops),
               "count"});
  m.push_back({"workload.measure.ops",
               static_cast<double>(boundary.measure_ops), "count"});
  m.push_back({"workload.measure.mean_latency_ms",
               Ratio(boundary.measure_latency_ms,
                     static_cast<double>(boundary.measure_ops)),
               "ms"});
  m.push_back({"workload.disk_full_events", static_cast<double>(disk_full),
               "count"});
  m.push_back({"sim.events", static_cast<double>(run.events), "count"});
  m.push_back({"sim.max_heap_depth", static_cast<double>(last.events_peak),
               "count"});
  for (const char* name : {"fs.physical_read_du", "fs.physical_write_du"}) {
    m.push_back({name, ObsValue(last, name), "du"});
  }
  m.push_back({"fs.cache.hit_rate", ObsValue(last, "cache.hit_rate"),
               "ratio"});
  m.push_back({"fs.cache.misses", ObsValue(last, "cache.misses"), "count"});
  m.push_back({"fs.cache.evictions", ObsValue(last, "cache.evictions"),
               "count"});
  m.push_back({"fs.cache.prefetch_hits", ObsValue(last, "cache.prefetch.hits"),
               "count"});
  m.push_back({"fs.cache.writeback_flushed",
               ObsValue(last, "cache.writeback.flushed"), "count"});
  m.push_back({"sched.mean_queue_depth",
               ObsValue(last, "disk.sched.mean_queue_depth"), "count"});
  m.push_back({"sched.reorders", ObsValue(last, "disk.sched.reorders"),
               "count"});
  m.push_back({"sched.seek_cylinders_mean",
               ObsValue(last, "disk.sched.seek_cylinders.mean"), "cyl"});
  m.push_back({"disk.accesses", ObsValue(last, "disk.accesses"), "count"});
  for (const char* name : {"disk.busy_ms", "disk.seek_ms", "disk.rotation_ms",
                           "disk.transfer_ms"}) {
    m.push_back({name, ObsValue(last, name), "ms"});
  }
  return run;
}

std::vector<Metric> EndToEndMetrics(const RunResult& run,
                                    double peak_rss_mib) {
  const double setup_s =
      run.setup_s * Ratio(kProbeReferenceS, run.setup_probe_s);
  const double measure_s = (run.wall_s - run.setup_s) *
                           Ratio(kProbeReferenceS, run.measure_probe_s);
  return {
      {"wall_s", setup_s + measure_s, "s"},
      {"setup_s", setup_s, "s"},
      {"measure_ops_per_s",
       Ratio(static_cast<double>(run.measured_ops), measure_s), "1/s"},
      {"peak_rss_mib", peak_rss_mib, "MiB"},
  };
}

std::vector<Metric> LayerMetrics(const RunResult& traced,
                                 const RunResult& untraced) {
  std::vector<Metric> m = traced.layers;
  m.push_back({"exp.trace_overhead", Ratio(traced.wall_s, untraced.wall_s),
               "ratio"});
  m.push_back({"exp.probe.setup_ms", untraced.setup_probe_s * 1e3, "ms"});
  m.push_back(
      {"exp.probe.measure_ms", untraced.measure_probe_s * 1e3, "ms"});
  m.push_back({"sim.ns_per_event",
               Ratio(untraced.wall_s * 1e9,
                     static_cast<double>(untraced.events)),
               "ns"});
  return m;
}

double PeakRssMib() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so a child of a large
  // parent would report the parent's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  return 0.0;
}

}  // namespace rofs::perfbench
