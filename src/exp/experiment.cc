#include "exp/experiment.h"

#include <algorithm>
#include <utility>

#include "exp/throughput_tracker.h"
#include "obs/trace_writer.h"
#include "stats/steady.h"

namespace rofs::exp {

/// Samples cumulative component counters every `window_ms` of simulated
/// time through a self-rescheduling event and appends the per-window
/// deltas to a WindowSeries. Every sampled value is simulation state read
/// at a deterministic event time, so the series is byte-identical across
/// --jobs counts.
/// The epoch invalidates ticks left in the heap by an earlier
/// measurement (a performance pair measures twice on one queue).
struct WindowRecorder {
  WindowRecorder(sim::EventQueue* q, workload::OpGenerator* g,
                 fs::ReadOptimizedFs* f, disk::DiskSystem* d,
                 obs::SimTracer* t, double window)
      : queue(q), gen(g), fs(f), disk(d), tracer(t), window_ms(window) {
    for (const char* name :
         {"ops", "lat_count", "lat_sum_ms", "read_du", "write_du",
          "disk_busy_ms", "disk_accesses", "disk_queue_wait_ms",
          "cache_hits", "cache_misses"}) {
      series.AddColumn(name);
    }
  }

  void CaptureRaw(std::vector<double>* out) const {
    out->clear();
    out->push_back(static_cast<double>(gen->ops_executed()));
    out->push_back(static_cast<double>(tracer->op_latency_ms()->count()));
    out->push_back(tracer->op_latency_ms()->sum());
    out->push_back(static_cast<double>(fs->physical_read_du()));
    out->push_back(static_cast<double>(fs->physical_write_du()));
    double busy_ms = 0.0;
    double queue_wait_ms = 0.0;
    uint64_t accesses = 0;
    // Fixed per-disk order keeps the floating-point sums deterministic.
    for (uint32_t i = 0; i < disk->num_disks(); ++i) {
      const disk::Disk& d = disk->disk(i);
      busy_ms += d.busy_time_ms();
      queue_wait_ms += d.queue_wait_ms();
      accesses += d.accesses();
    }
    out->push_back(busy_ms);
    out->push_back(static_cast<double>(accesses));
    out->push_back(queue_wait_ms);
    const fs::BufferCache* cache = fs->cache();
    out->push_back(
        cache != nullptr ? static_cast<double>(cache->hits()) : 0.0);
    out->push_back(
        cache != nullptr ? static_cast<double>(cache->misses()) : 0.0);
  }

  void Start(sim::TimeMs now, size_t expected_rows) {
    ++epoch;
    active = true;
    series.ClearRows();
    series.Reserve(expected_rows);
    CaptureRaw(&prev);
    delta.reserve(prev.size());
    queue->Schedule(now + window_ms, [this, e = epoch] { Tick(e); });
  }

  void Tick(uint64_t tick_epoch) {
    if (!active || tick_epoch != epoch) return;
    CaptureRaw(&raw);
    delta.clear();
    for (size_t i = 0; i < raw.size(); ++i) {
      delta.push_back(raw[i] - prev[i]);
    }
    std::swap(prev, raw);
    series.Append(queue->now(), delta.data());
    queue->Schedule(queue->now() + window_ms, [this, e = epoch] { Tick(e); });
  }

  /// Any tick still in the heap becomes a no-op.
  void Stop() {
    active = false;
    ++epoch;
  }

  sim::EventQueue* queue;
  workload::OpGenerator* gen;
  fs::ReadOptimizedFs* fs;
  disk::DiskSystem* disk;
  obs::SimTracer* tracer;
  double window_ms;
  uint64_t epoch = 0;
  bool active = false;
  obs::WindowSeries series;
  std::vector<double> prev;
  std::vector<double> raw;
  std::vector<double> delta;
};

Experiment::Sim::Sim() = default;
Experiment::Sim::~Sim() = default;

namespace {

/// Shared metric names for the counters every allocation policy exposes.
void AllocatorStatsToRecord(const alloc::AllocatorStats& s, RunRecord* r) {
  r->Set("allocator.calls", static_cast<double>(s.alloc_calls));
  r->Set("allocator.blocks_allocated", static_cast<double>(s.blocks_allocated));
  r->Set("allocator.blocks_freed", static_cast<double>(s.blocks_freed));
  r->Set("allocator.splits", static_cast<double>(s.splits));
  r->Set("allocator.coalesces", static_cast<double>(s.coalesces));
  r->Set("allocator.failed_allocs", static_cast<double>(s.failed_allocs));
}

alloc::AllocatorStats AllocatorStatsFromRecord(const RunRecord& r) {
  alloc::AllocatorStats s;
  s.alloc_calls = static_cast<uint64_t>(r.Get("allocator.calls"));
  s.blocks_allocated =
      static_cast<uint64_t>(r.Get("allocator.blocks_allocated"));
  s.blocks_freed = static_cast<uint64_t>(r.Get("allocator.blocks_freed"));
  s.splits = static_cast<uint64_t>(r.Get("allocator.splits"));
  s.coalesces = static_cast<uint64_t>(r.Get("allocator.coalesces"));
  s.failed_allocs = static_cast<uint64_t>(r.Get("allocator.failed_allocs"));
  return s;
}

}  // namespace

Status ExperimentConfig::Validate() const {
  if (!(fill_lower > 0.0 && fill_lower <= fill_upper && fill_upper <= 1.0)) {
    return Status::InvalidArgument(
        "fill band must satisfy 0 < fill_lower <= fill_upper <= 1");
  }
  if (sample_interval_ms <= 0.0) {
    return Status::InvalidArgument("sample_interval_ms must be positive");
  }
  if (stable_tolerance_pp < 0.0) {
    return Status::InvalidArgument(
        "stable_tolerance_pp must be non-negative");
  }
  if (stable_samples < 1) {
    return Status::InvalidArgument("stable_samples must be >= 1");
  }
  if (warmup_ms < 0.0) {
    return Status::InvalidArgument("warmup_ms must be non-negative");
  }
  if (min_measure_ms <= 0.0 || max_measure_ms < min_measure_ms) {
    return Status::InvalidArgument(
        "measurement window must satisfy 0 < min_measure_ms <= "
        "max_measure_ms");
  }
  if (seq_min_measure_ms <= 0.0 ||
      seq_max_measure_ms < seq_min_measure_ms) {
    return Status::InvalidArgument(
        "sequential window must satisfy 0 < seq_min_measure_ms <= "
        "seq_max_measure_ms");
  }
  if (!(alloc_full_utilization > 0.0 && alloc_full_utilization <= 1.0)) {
    return Status::InvalidArgument(
        "alloc_full_utilization must be in (0, 1]");
  }
  if (max_alloc_test_ops == 0) {
    return Status::InvalidArgument("max_alloc_test_ops must be positive");
  }
  if (seed == 0) {
    return Status::InvalidArgument(
        "seed must be non-zero (replicate streams derive from it)");
  }
  if (obs.trace && obs.trace_events == 0) {
    return Status::InvalidArgument(
        "obs.trace_events must be positive when tracing is on");
  }
  if (obs.window_ms < 0.0) {
    return Status::InvalidArgument("obs.window_ms must be non-negative");
  }
  if (fs_options.cache_bytes > 0 && fs_options.cache_page_bytes == 0) {
    return Status::InvalidArgument(
        "cache_page_bytes must be positive when the cache is enabled");
  }
  if (fs_options.readahead_pages > 0 && fs_options.cache_bytes == 0) {
    return Status::InvalidArgument(
        "readahead_pages requires the buffer cache ([fs] cache > 0)");
  }
  if (fs_options.writeback_dirty_max > 0 && fs_options.cache_bytes == 0) {
    return Status::InvalidArgument(
        "writeback_dirty_max requires the buffer cache ([fs] cache > 0)");
  }
  {
    const Status policy = fs_options.cache_policy.Validate();
    if (!policy.ok()) return policy;
  }
  return Status::OK();
}

RunRecord AllocationResult::ToRecord() const {
  RunRecord r;
  r.tags["result_kind"] = "allocation";
  r.Set("internal_frag", internal_fragmentation);
  r.Set("external_frag", external_fragmentation);
  r.Set("utilization", utilization);
  r.Set("extents_per_file", avg_extents_per_file);
  r.Set("ops", static_cast<double>(ops_executed));
  r.Set("simulated_ms", simulated_ms);
  r.Set("sim.users.peak", static_cast<double>(users_peak));
  r.Set("sim.events.peak", static_cast<double>(events_peak));
  AllocatorStatsToRecord(alloc_stats, &r);
  for (const auto& [name, value] : obs_metrics) r.Set("obs." + name, value);
  return r;
}

AllocationResult AllocationResult::FromRecord(const RunRecord& record) {
  // obs.* metrics are intentionally not recovered: they are observability
  // output, not part of the typed result, and stay in the record.
  AllocationResult a;
  a.internal_fragmentation = record.Get("internal_frag");
  a.external_fragmentation = record.Get("external_frag");
  a.utilization = record.Get("utilization");
  a.avg_extents_per_file = record.Get("extents_per_file");
  a.ops_executed = static_cast<uint64_t>(record.Get("ops"));
  a.simulated_ms = record.Get("simulated_ms");
  a.users_peak = static_cast<uint64_t>(record.Get("sim.users.peak"));
  a.events_peak = static_cast<uint64_t>(record.Get("sim.events.peak"));
  a.alloc_stats = AllocatorStatsFromRecord(record);
  return a;
}

RunRecord PerfResult::ToRecord() const {
  RunRecord r;
  r.tags["result_kind"] = "perf";
  r.Set("throughput_of_max", utilization_of_max);
  r.Set("stabilized", stabilized ? 1.0 : 0.0);
  r.Set("measured_ms", measured_ms);
  r.Set("ops", static_cast<double>(ops_executed));
  r.Set("bytes_moved", static_cast<double>(bytes_moved));
  r.Set("disk_full_events", static_cast<double>(disk_full_events));
  r.Set("extents_per_file", avg_extents_per_file);
  r.Set("internal_frag", internal_fragmentation);
  r.Set("mean_op_latency_ms", mean_op_latency_ms);
  if (open_loop) {
    r.Set("open.offered_ops", static_cast<double>(offered_ops));
    r.Set("open.completed_ops", static_cast<double>(completed_ops));
    r.Set("open.pending_peak", static_cast<double>(pending_peak));
  }
  r.Set("sim.users.peak", static_cast<double>(users_peak));
  r.Set("sim.events.peak", static_cast<double>(events_peak));
  AllocatorStatsToRecord(alloc_stats, &r);
  for (const auto& [name, value] : obs_metrics) r.Set("obs." + name, value);
  r.series = series;
  return r;
}

PerfResult PerfResult::FromRecord(const RunRecord& record) {
  // obs.* metrics are intentionally not recovered (see AllocationResult).
  PerfResult p;
  p.utilization_of_max = record.Get("throughput_of_max");
  p.stabilized = record.Get("stabilized") != 0.0;
  p.measured_ms = record.Get("measured_ms");
  p.ops_executed = static_cast<uint64_t>(record.Get("ops"));
  p.bytes_moved = static_cast<uint64_t>(record.Get("bytes_moved"));
  p.disk_full_events =
      static_cast<uint64_t>(record.Get("disk_full_events"));
  p.avg_extents_per_file = record.Get("extents_per_file");
  p.internal_fragmentation = record.Get("internal_frag");
  p.mean_op_latency_ms = record.Get("mean_op_latency_ms");
  p.open_loop = record.Has("open.offered_ops");
  p.offered_ops = static_cast<uint64_t>(record.Get("open.offered_ops"));
  p.completed_ops = static_cast<uint64_t>(record.Get("open.completed_ops"));
  p.pending_peak = static_cast<uint64_t>(record.Get("open.pending_peak"));
  p.users_peak = static_cast<uint64_t>(record.Get("sim.users.peak"));
  p.events_peak = static_cast<uint64_t>(record.Get("sim.events.peak"));
  p.alloc_stats = AllocatorStatsFromRecord(record);
  return p;
}

Experiment::Experiment(workload::WorkloadSpec workload,
                       AllocatorFactory factory,
                       disk::DiskSystemConfig disk_config,
                       ExperimentConfig config)
    : workload_(std::move(workload)), factory_(std::move(factory)),
      disk_config_(disk_config), config_(config) {}

StatusOr<std::unique_ptr<Experiment::Sim>> Experiment::Setup(
    workload::OpMode mode, bool fill) {
  ROFS_RETURN_IF_ERROR(config_.Validate());
  // The scheduler spec lives in the disk config (it is per-disk-system
  // state); validate it here where every driver funnels through. Same for
  // the workload's arrival model and file-pick skew.
  ROFS_RETURN_IF_ERROR(disk_config_.scheduler.Validate());
  ROFS_RETURN_IF_ERROR(workload_.arrivals.Validate());
  if (workload_.zipf_theta < 0.0) {
    return Status::InvalidArgument("workload zipf_theta must be >= 0");
  }
  auto sim = std::make_unique<Sim>();
  sim->disk = std::make_unique<disk::DiskSystem>(disk_config_);
  // Dispatch-driven disks: every request flows through the configured
  // per-disk scheduler and completes via an event-queue callback.
  sim->disk->BindQueue(&sim->queue);
  sim->allocator = factory_(sim->disk->capacity_du());
  sim->fs = std::make_unique<fs::ReadOptimizedFs>(
      sim->allocator.get(), sim->disk.get(), config_.fs_options);
  // Initialization and filling are instantaneous: measurement starts only
  // once the system is in the target band.
  sim->fs->set_io_enabled(false);
  workload::OpGeneratorOptions options;
  options.mode = mode;
  // Allocation tests must be allowed to drive the disk to failure; only
  // fill and measurement phases clamp utilization at the upper bound M.
  options.upper_bound_util = fill ? config_.fill_upper : 2.0;
  options.seed = config_.seed;
  // Reordering schedulers cannot report completion times at issue; the
  // generator must account for operations in completion callbacks.
  options.async = !sim->disk->predictable();
  sim->gen = std::make_unique<workload::OpGenerator>(
      &workload_, sim->fs.get(), &sim->queue, options);
  if (instrument_) instrument_(sim->gen.get());

  if (config_.obs.enabled()) {
    sim->obs =
        std::make_unique<obs::Session>(config_.obs, sim->queue.now_ptr());
    obs::SimTracer* tracer = sim->obs->tracer();
    sim->queue.set_tracer(tracer);
    sim->disk->set_tracer(tracer);
    sim->allocator->set_tracer(tracer);
    sim->fs->set_tracer(tracer);
    // Per-op latency attribution: the generator opens/folds the ledgers;
    // the fs retargets around metadata, flush, and readahead I/O; the
    // disk system charges each access.
    obs::OpAttribution* attr = sim->obs->attribution();
    sim->disk->set_attribution(attr);
    sim->fs->set_attribution(attr);
    sim->gen->set_attribution(attr);
    // Chain onto whatever sink instrument_ installed (e.g. an OpTrace),
    // after it ran, so both observers see every executed op. The tracer
    // stays disarmed until a test's interesting phase begins.
    auto prev = std::move(sim->gen->on_op);
    sim->gen->on_op = [tracer, prev = std::move(prev)](
                          const workload::OpRecord& r) {
      if (prev) prev(r);
      tracer->Op(static_cast<obs::OpEvent>(r.op), r.issued, r.completed,
                 r.bytes);
    };
  }

  const Status init = sim->gen->CreateInitialFiles();
  if (!init.ok() && !fill) {
    // Allocation tests may legitimately fill the disk during
    // initialization; the caller inspects utilization.
    return sim;
  }
  ROFS_RETURN_IF_ERROR(init);

  sim->gen->ScheduleUserStreams();

  if (fill) {
    // Age the layout with growth-biased churn until the utilization band
    // is reached (the paper's lower bound N).
    sim->gen->set_mode(workload::OpMode::kFill);
    const double chunk = 10 * config_.sample_interval_ms;
    double best_util = -1.0;
    int stalled = 0;
    while (sim->fs->SpaceUtilization() < config_.fill_lower) {
      sim->queue.RunUntil(sim->queue.now() + chunk);
      const double util = sim->fs->SpaceUtilization();
      if (util - best_util < 5e-4) {
        // A policy whose external fragmentation keeps it from ever
        // reaching the band (e.g. Koch buddy, Table 3) measures at the
        // utilization it can sustain.
        if (++stalled > 20) break;
      } else {
        stalled = 0;
        best_util = std::max(best_util, util);
      }
    }
  }
  return sim;
}

void Experiment::FillCapacity(Sim* sim, uint64_t* users_peak,
                              uint64_t* events_peak) const {
  uint64_t users = 0;
  for (const workload::FileTypeSpec& t : workload_.types) {
    users += t.num_users;
  }
  *users_peak = users;
  *events_peak = sim->queue.max_heap_depth();
}

PerfResult Experiment::Measure(Sim* sim, workload::OpMode mode) {
  sim->gen->set_mode(mode);
  sim->gen->set_upper_bound_util(config_.fill_upper);
  sim->fs->set_io_enabled(true);
  // Open-loop workloads switch to arrival-time injection here — after the
  // closed-loop fill aged the layout — so the disk queues feel the offered
  // load through warm-up and measurement. Idempotent across the sequential
  // half of a performance pair.
  if (workload_.arrivals.open()) {
    sim->gen->StartOpenLoop(workload_.arrivals);
  }

  const bool sequential = mode == workload::OpMode::kSequential;
  const double min_measure =
      sequential ? config_.seq_min_measure_ms : config_.min_measure_ms;
  const double max_measure =
      sequential ? config_.seq_max_measure_ms : config_.max_measure_ms;

  // Shared ownership: operations still in flight when this measurement
  // ends keep a reference to their tracker (see OpGenerator).
  auto tracker = std::make_shared<ThroughputTracker>(
      sim->disk->MaxSequentialBandwidthBytesPerMs(),
      config_.sample_interval_ms, config_.stable_tolerance_pp,
      config_.stable_samples);
  sim->gen->on_bytes_moved = [tracker](uint64_t bytes, sim::TimeMs done) {
    tracker->Record(bytes, done);
  };

  // Warm up the disk queues in the measured mode, then measure.
  sim->queue.RunUntil(sim->queue.now() + config_.warmup_ms);
  const uint64_t disk_full_before = sim->gen->disk_full_count();
  const uint64_t offered_before = sim->gen->open_offered();
  const uint64_t completed_before = sim->gen->open_completed();
  sim->gen->ResetStats();
  // Recording starts with the measurement window (stays armed across the
  // sequential half of a performance pair).
  if (sim->obs != nullptr) sim->obs->ArmAll();
  tracker->Start(sim->queue.now());
  const sim::TimeMs start = sim->queue.now();
  WindowRecorder* windows = nullptr;
  if (sim->obs != nullptr && config_.obs.window_ms > 0) {
    if (sim->window == nullptr) {
      sim->window = std::make_unique<WindowRecorder>(
          &sim->queue, sim->gen.get(), sim->fs.get(), sim->disk.get(),
          sim->obs->tracer(), config_.obs.window_ms);
    }
    windows = sim->window.get();
    windows->Start(start, static_cast<size_t>(
                              max_measure / config_.obs.window_ms) +
                              2);
  }

  double util = 0.0;
  while (true) {
    const sim::TimeMs t = tracker->NextSampleTime();
    sim->queue.RunUntil(t);
    util = tracker->Sample(t);
    const double elapsed = t - start;
    if (elapsed >= min_measure && tracker->Stabilized()) break;
    if (elapsed >= max_measure) break;
  }

  // Write-back mode: flush the buffered dirty pages inside the measured
  // window so a policy cannot look cheap by deferring its writes past the
  // end of the measurement. No-op without write-back buffering.
  sim->gen->FlushWriteBack(sim->queue.now());

  PerfResult result;
  if (windows != nullptr) {
    windows->Stop();
    result.series = windows->series;
    // Steady-state onset: the first window whose ops-per-window block
    // mean is statistically indistinguishable (overlapping Student-t
    // CIs) from the following block; -1 when the series never settles.
    const std::vector<double>* ops = windows->series.Find("ops");
    const int steady =
        ops != nullptr
            ? stats::DetectSteadyWindow(
                  *ops, stats::SteadyBlockLength(ops->size()))
            : -1;
    sim->obs->registry()
        .AddGauge("steady.window")
        ->Set(static_cast<double>(steady));
  }
  result.utilization_of_max = util;
  result.stabilized = tracker->Stabilized();
  result.measured_ms = sim->queue.now() - start;
  result.ops_executed = sim->gen->ops_executed();
  result.bytes_moved = tracker->bytes_moved();
  result.disk_full_events = sim->gen->disk_full_count() - disk_full_before;
  result.avg_extents_per_file = sim->fs->AverageExtentsPerFile();
  result.internal_fragmentation = sim->fs->InternalFragmentation();
  result.mean_op_latency_ms = sim->gen->op_latency_ms().Mean();
  if (sim->gen->open_loop()) {
    result.open_loop = true;
    result.offered_ops = sim->gen->open_offered() - offered_before;
    result.completed_ops = sim->gen->open_completed() - completed_before;
    result.pending_peak = sim->gen->open_pending_peak();
  }
  result.alloc_stats = sim->allocator->stats();
  FillCapacity(sim, &result.users_peak, &result.events_peak);
  SnapshotObs(sim, &result.obs_metrics);
  if (stats_sink_ != nullptr && mode == workload::OpMode::kApplication) {
    *stats_sink_ = sim->gen->StatsReport();
  }
  sim->gen->on_bytes_moved = nullptr;
  return result;
}

void Experiment::SnapshotObs(
    Sim* sim, std::vector<std::pair<std::string, double>>* out) {
  if (sim->obs == nullptr || !sim->obs->options().metrics) return;
  obs::Registry& reg = sim->obs->registry();
  // End-of-run gauges folded from the components' own counters. Every
  // value derives from simulation state, never wall clock, so snapshots
  // are identical however many runner jobs executed the sweep.
  reg.AddGauge("sim.events_dispatched")
      ->Set(static_cast<double>(sim->queue.dispatched()));
  reg.AddGauge("sim.max_heap_depth")
      ->Set(static_cast<double>(sim->queue.max_heap_depth()));
  double seek_ms = 0, rotation_ms = 0, transfer_ms = 0, busy_ms = 0;
  uint64_t seeks = 0, accesses = 0, bytes = 0;
  for (uint32_t i = 0; i < sim->disk->num_disks(); ++i) {
    const disk::Disk& d = sim->disk->disk(i);
    seek_ms += d.seek_time_ms();
    rotation_ms += d.rotation_time_ms();
    transfer_ms += d.transfer_time_ms();
    busy_ms += d.busy_time_ms();
    seeks += d.seeks();
    accesses += d.accesses();
    bytes += d.bytes_transferred();
  }
  reg.AddGauge("disk.seek_ms")->Set(seek_ms);
  reg.AddGauge("disk.rotation_ms")->Set(rotation_ms);
  reg.AddGauge("disk.transfer_ms")->Set(transfer_ms);
  reg.AddGauge("disk.busy_ms")->Set(busy_ms);
  reg.AddGauge("disk.seeks")->Set(static_cast<double>(seeks));
  reg.AddGauge("disk.accesses")->Set(static_cast<double>(accesses));
  reg.AddGauge("disk.bytes")->Set(static_cast<double>(bytes));
  uint64_t dispatches = 0, reorders = 0, depth_sum = 0;
  Histogram seek_cyl;
  for (uint32_t i = 0; i < sim->disk->num_disks(); ++i) {
    const disk::Disk& d = sim->disk->disk(i);
    dispatches += d.dispatches();
    reorders += d.reorders();
    depth_sum += static_cast<uint64_t>(d.mean_dispatch_queue_depth() *
                                           static_cast<double>(d.dispatches()) +
                                       0.5);
    seek_cyl.Merge(d.dispatch_seek_cylinders());
  }
  reg.AddGauge("disk.sched.dispatches")
      ->Set(static_cast<double>(dispatches));
  reg.AddGauge("disk.sched.reorders")->Set(static_cast<double>(reorders));
  reg.AddGauge("disk.sched.mean_queue_depth")
      ->Set(dispatches == 0 ? 0.0
                            : static_cast<double>(depth_sum) /
                                  static_cast<double>(dispatches));
  reg.AddGauge("disk.sched.seek_cylinders.mean")
      ->Set(seek_cyl.count() == 0 ? 0.0 : seek_cyl.Mean());
  reg.AddGauge("disk.sched.seek_cylinders.p95")
      ->Set(seek_cyl.count() == 0 ? 0.0 : seek_cyl.Percentile(95));
  if (const fs::BufferCache* cache = sim->fs->cache()) {
    reg.AddGauge("cache.hits")->Set(static_cast<double>(cache->hits()));
    reg.AddGauge("cache.misses")->Set(static_cast<double>(cache->misses()));
    reg.AddGauge("cache.evictions")
        ->Set(static_cast<double>(cache->evictions()));
    reg.AddGauge("cache.requests")
        ->Set(static_cast<double>(cache->requests()));
    reg.AddGauge("cache.hit_rate")->Set(cache->HitRate());
    reg.AddGauge("cache.policy")
        ->Set(static_cast<double>(cache->policy_kind()));
    reg.AddGauge("cache.prefetch.issued")
        ->Set(static_cast<double>(cache->prefetch_issued()));
    reg.AddGauge("cache.prefetch.hits")
        ->Set(static_cast<double>(cache->prefetch_hits()));
    reg.AddGauge("cache.writeback.dirty")
        ->Set(static_cast<double>(cache->dirty_pages()));
    reg.AddGauge("cache.writeback.flushed")
        ->Set(static_cast<double>(cache->flushed_pages()));
  }
  reg.AddGauge("fs.physical_read_du")
      ->Set(static_cast<double>(sim->fs->physical_read_du()));
  reg.AddGauge("fs.prefetch_read_du")
      ->Set(static_cast<double>(sim->fs->prefetch_read_du()));
  reg.AddGauge("fs.physical_write_du")
      ->Set(static_cast<double>(sim->fs->physical_write_du()));
  if (sim->obs->options().trace) {
    reg.AddGauge("trace.dropped_spans")
        ->Set(static_cast<double>(sim->obs->DroppedSpans()));
  }
  out->clear();
  reg.Snapshot(out);
}

void Experiment::FinishObs(Sim* sim) {
  if (sim->obs == nullptr || sim->obs->buffer() == nullptr) return;
  obs::TraceCollector::Global().AddRun(sim->obs->TakeBuffer());
}

StatusOr<AllocationResult> Experiment::RunAllocationTest() {
  ROFS_ASSIGN_OR_RETURN(std::unique_ptr<Sim> sim,
                        Setup(workload::OpMode::kAllocation, /*fill=*/false));
  // Stop at the first allocation failure ("As soon as the first allocation
  // request fails, the external and internal fragmentation are computed").
  // The churn is growth-biased (kFill) so every configuration reliably
  // reaches the failure point; see DESIGN.md. Policies that can pack the
  // disk almost perfectly (tiny extents) are declared full at the
  // utilization cap instead — their external fragmentation is ~zero.
  if (sim->obs != nullptr) sim->obs->ArmAll();
  if (!sim->gen->hit_disk_full()) {
    sim->gen->set_mode(workload::OpMode::kFill);
    sim->gen->on_disk_full = [&sim] { sim->queue.Stop(); };
    while (!sim->gen->hit_disk_full() &&
           sim->fs->SpaceUtilization() < config_.alloc_full_utilization &&
           sim->gen->ops_executed() < config_.max_alloc_test_ops) {
      sim->queue.RunUntil(sim->queue.now() +
                          10 * config_.sample_interval_ms);
      if (sim->queue.stopped()) break;
    }
  }
  AllocationResult result;
  result.internal_fragmentation = sim->fs->InternalFragmentation();
  result.external_fragmentation = sim->fs->ExternalFragmentation();
  result.utilization = sim->fs->SpaceUtilization();
  result.avg_extents_per_file = sim->fs->AverageExtentsPerFile();
  result.ops_executed = sim->gen->ops_executed();
  result.simulated_ms = sim->queue.now();
  result.alloc_stats = sim->allocator->stats();
  FillCapacity(sim.get(), &result.users_peak, &result.events_peak);
  SnapshotObs(sim.get(), &result.obs_metrics);
  FinishObs(sim.get());
  return result;
}

StatusOr<PerfResult> Experiment::RunApplicationTest() {
  ROFS_ASSIGN_OR_RETURN(std::unique_ptr<Sim> sim,
                        Setup(workload::OpMode::kApplication, /*fill=*/true));
  PerfResult result = Measure(sim.get(), workload::OpMode::kApplication);
  FinishObs(sim.get());
  return result;
}

StatusOr<PerfResult> Experiment::RunSequentialTest() {
  ROFS_ASSIGN_OR_RETURN(std::unique_ptr<Sim> sim,
                        Setup(workload::OpMode::kApplication, /*fill=*/true));
  PerfResult result = Measure(sim.get(), workload::OpMode::kSequential);
  FinishObs(sim.get());
  return result;
}

StatusOr<Experiment::PerfPair> Experiment::RunPerformancePair() {
  ROFS_ASSIGN_OR_RETURN(std::unique_ptr<Sim> sim,
                        Setup(workload::OpMode::kApplication, /*fill=*/true));
  PerfPair pair;
  // "When the throughput has stabilized the throughput numbers are
  // recorded and the sequential test begins."
  pair.application = Measure(sim.get(), workload::OpMode::kApplication);
  pair.sequential = Measure(sim.get(), workload::OpMode::kSequential);
  FinishObs(sim.get());
  return pair;
}

}  // namespace rofs::exp
