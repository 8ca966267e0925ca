#include "bench/common.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "alloc/buddy_allocator.h"
#include "alloc/fixed_block_allocator.h"
#include "exp/reporting.h"
#include "obs/trace_writer.h"
#include "sim/event_queue.h"
#include "util/table.h"
#include "util/units.h"

namespace rofs::bench {

namespace {

/// Observability options of the Sweep currently driving this process,
/// folded into every BenchExperimentConfig() so drivers pick them up
/// without touching their cell lambdas. Set once by the Sweep ctor before
/// any cell runs; defaults keep observability off.
obs::Options g_bench_obs;

}  // namespace

exp::Experiment::AllocatorFactory BuddyFactory() {
  return [](uint64_t total_du) -> std::unique_ptr<alloc::Allocator> {
    return std::make_unique<alloc::BuddyAllocator>(
        total_du, /*max_extent_du=*/64 * kMiB / kKiB);
  };
}

std::vector<uint64_t> BlockSizeLadderDu(int num_sizes) {
  // 1K disk units: {1K, 8K, 64K, 1M, 16M}.
  const std::vector<uint64_t> full = {1, 8, 64, 1024, 16384};
  return std::vector<uint64_t>(full.begin(), full.begin() + num_sizes);
}

exp::Experiment::AllocatorFactory RestrictedBuddyFactory(int num_sizes,
                                                         uint32_t grow_factor,
                                                         bool clustered) {
  alloc::RestrictedBuddyConfig cfg;
  cfg.block_sizes_du = BlockSizeLadderDu(num_sizes);
  cfg.grow_factor = grow_factor;
  cfg.clustered = clustered;
  return [cfg](uint64_t total_du) -> std::unique_ptr<alloc::Allocator> {
    return std::make_unique<alloc::RestrictedBuddyAllocator>(total_du, cfg);
  };
}

exp::Experiment::AllocatorFactory ExtentFactory(workload::WorkloadKind kind,
                                                int num_ranges,
                                                alloc::FitPolicy fit) {
  alloc::ExtentAllocatorConfig cfg;
  cfg.range_means_du.clear();
  for (uint64_t bytes : workload::ExtentRangeMeansBytes(kind, num_ranges)) {
    cfg.range_means_du.push_back(bytes / kKiB);
  }
  cfg.fit = fit;
  return [cfg](uint64_t total_du) -> std::unique_ptr<alloc::Allocator> {
    return std::make_unique<alloc::ExtentAllocator>(total_du, cfg);
  };
}

exp::Experiment::AllocatorFactory FixedBlockFactory(
    workload::WorkloadKind kind) {
  const uint64_t block_du = workload::FixedBlockBytesFor(kind) / kKiB;
  return [block_du](uint64_t total_du) -> std::unique_ptr<alloc::Allocator> {
    return std::make_unique<alloc::FixedBlockAllocator>(total_du, block_du);
  };
}

disk::DiskSystemConfig PaperDiskConfig() {
  return disk::DiskSystemConfig::Array(8);
}

exp::ExperimentConfig BenchExperimentConfig() {
  exp::ExperimentConfig cfg;
  const char* fast = std::getenv("ROFS_FAST");
  if (fast != nullptr && fast[0] != '\0') {
    cfg.warmup_ms = 5'000;
    cfg.min_measure_ms = 20'000;
    cfg.max_measure_ms = 60'000;
    cfg.seq_min_measure_ms = 40'000;
    cfg.seq_max_measure_ms = 200'000;
    cfg.stable_tolerance_pp = 1.0;
  }
  cfg.obs = g_bench_obs;
  return cfg;
}

void RejectRemovedEngineEnv() {
  for (const char* name : {"ROFS_SIM_THREADS", "ROFS_SIM_WHEEL"}) {
    if (std::getenv(name) == nullptr) continue;
    DieOnError(Status::InvalidArgument(
                   std::string(name) +
                   " was removed with the sharded engine and the timer "
                   "wheel; every run uses the single event heap, so unset "
                   "it"),
               "environment");
  }
}

void DieOnError(const Status& status, const std::string& context) {
  if (status.ok()) return;
  std::fprintf(stderr, "FATAL: %s: %s\n", context.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

runner::SweepOptions ParseSweepOptions(int argc, char** argv) {
  runner::SweepOptions options;
  for (int i = 1; i < argc; ++i) {
    if ((std::strcmp(argv[i], "--jobs") == 0 ||
         std::strcmp(argv[i], "-j") == 0) &&
        i + 1 < argc) {
      options.jobs = std::atoi(argv[++i]);
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      options.jobs = std::atoi(argv[i] + 7);
    }
  }
  return options;
}

BenchOptions ParseBenchOptions(int argc, char** argv) {
  BenchOptions options;
  options.sweep = ParseSweepOptions(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if ((std::strcmp(argv[i], "--replicates") == 0 ||
         std::strcmp(argv[i], "-r") == 0) &&
        i + 1 < argc) {
      options.replicates = std::atoi(argv[++i]);
    } else if (std::strncmp(argv[i], "--replicates=", 13) == 0) {
      options.replicates = std::atoi(argv[i] + 13);
    } else if (std::strcmp(argv[i], "--jsonl") == 0 && i + 1 < argc) {
      options.jsonl_path = argv[++i];
    } else if (std::strncmp(argv[i], "--jsonl=", 8) == 0) {
      options.jsonl_path = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      options.csv_path = argv[++i];
    } else if (std::strncmp(argv[i], "--csv=", 6) == 0) {
      options.csv_path = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      options.obs.metrics = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      options.trace_path = argv[++i];
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      options.trace_path = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--trace-events") == 0 && i + 1 < argc) {
      options.obs.trace_events =
          static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strncmp(argv[i], "--trace-events=", 15) == 0) {
      options.obs.trace_events =
          static_cast<size_t>(std::atoll(argv[i] + 15));
    } else if (std::strcmp(argv[i], "--window-ms") == 0 && i + 1 < argc) {
      options.obs.window_ms = std::atof(argv[++i]);
    } else if (std::strncmp(argv[i], "--window-ms=", 12) == 0) {
      options.obs.window_ms = std::atof(argv[i] + 12);
    } else if (std::strcmp(argv[i], "--progress") == 0) {
      options.progress = true;
    }
  }
  if (options.jsonl_path.empty()) {
    if (const char* env = std::getenv("ROFS_JSONL");
        env != nullptr && env[0] != '\0') {
      options.jsonl_path = env;
    }
  }
  if (options.csv_path.empty()) {
    if (const char* env = std::getenv("ROFS_CSV");
        env != nullptr && env[0] != '\0') {
      options.csv_path = env;
    }
  }
  if (!options.obs.metrics) {
    if (const char* env = std::getenv("ROFS_METRICS");
        env != nullptr && env[0] != '\0') {
      options.obs.metrics = true;
    }
  }
  if (options.trace_path.empty()) {
    if (const char* env = std::getenv("ROFS_TRACE");
        env != nullptr && env[0] != '\0') {
      options.trace_path = env;
    }
  }
  if (const char* env = std::getenv("ROFS_TRACE_EVENTS");
      env != nullptr && env[0] != '\0' &&
      options.obs.trace_events == obs::Options{}.trace_events) {
    options.obs.trace_events = static_cast<size_t>(std::atoll(env));
  }
  if (options.obs.window_ms <= 0) {
    if (const char* env = std::getenv("ROFS_WINDOW_MS");
        env != nullptr && env[0] != '\0') {
      options.obs.window_ms = std::atof(env);
    }
  }
  options.obs.trace = !options.trace_path.empty();
  if (!options.progress) {
    if (const char* env = std::getenv("ROFS_PROGRESS");
        env != nullptr && env[0] != '\0') {
      options.progress = true;
    }
  }
  return options;
}

const stats::Summary& CellStats::Of(const std::string& metric) const {
  const auto it = summaries_.find(metric);
  if (it == summaries_.end()) {
    std::fprintf(stderr,
                 "FATAL: formatter asked for metric '%s' that no replicate "
                 "recorded\n",
                 metric.c_str());
    std::exit(1);
  }
  return it->second;
}

std::string CellStats::Pct(const std::string& metric) const {
  const stats::Summary& s = Of(metric);
  if (replicates_ <= 1) return FormatString("%.1f%%", s.mean * 100.0);
  return FormatString("%.1f±%.1f%%", s.mean * 100.0,
                      s.ci_half_width * 100.0);
}

std::string CellStats::Fixed(const std::string& metric, int decimals,
                             const char* suffix) const {
  const stats::Summary& s = Of(metric);
  if (replicates_ <= 1) {
    return FormatString("%.*f%s", decimals, s.mean, suffix);
  }
  return FormatString("%.*f±%.*f%s", decimals, s.mean, decimals,
                      s.ci_half_width, suffix);
}

Sweep::Sweep(int argc, char** argv)
    : options_(ParseBenchOptions(argc, argv)) {
  RejectRemovedEngineEnv();
  options_.sweep.jobs = runner::SweepRunner::ResolveJobs(options_.sweep.jobs);
  options_.replicates =
      runner::SweepRunner::ResolveReplicates(options_.replicates);
  g_bench_obs = options_.obs;
  // Heartbeat state shared with the progress callback below. The callback
  // runs on the collector thread only, so plain members suffice; the
  // throttle keeps long sweeps from scrolling one line per run.
  struct Heartbeat {
    std::chrono::steady_clock::time_point t0 =
        std::chrono::steady_clock::now();
    std::chrono::steady_clock::time_point last{};
  };
  auto heartbeat = options_.progress ? std::make_shared<Heartbeat>() : nullptr;
  options_.sweep.progress = [heartbeat](const runner::RunResult& r,
                                        size_t done, size_t total) {
    std::fprintf(stderr, "[%zu/%zu] %s: %s (%.1fs)\n", done, total,
                 r.label.c_str(),
                 r.status.ok() ? "ok" : r.status.ToString().c_str(),
                 r.wall_ms / 1000.0);
    if (heartbeat == nullptr) return;
    const auto now = std::chrono::steady_clock::now();
    if (done < total && now - heartbeat->last < std::chrono::seconds(1)) {
      return;
    }
    heartbeat->last = now;
    const double elapsed =
        std::chrono::duration<double>(now - heartbeat->t0).count();
    const double eta =
        done > 0 ? elapsed * static_cast<double>(total - done) /
                       static_cast<double>(done)
                 : 0.0;
    std::fprintf(stderr,
                 "progress: %zu/%zu runs (%.0f%%), elapsed %.1fs, "
                 "eta %.1fs\n",
                 done, total,
                 100.0 * static_cast<double>(done) /
                     static_cast<double>(total),
                 elapsed, eta);
  };
  experiment_ = "bench";
  if (argc >= 1 && argv[0] != nullptr && argv[0][0] != '\0') {
    std::string name = argv[0];
    const size_t slash = name.find_last_of('/');
    if (slash != std::string::npos) name = name.substr(slash + 1);
    if (!name.empty()) experiment_ = std::move(name);
  }
}

void Sweep::Add(std::string label, RecordFn fn, FormatFn format) {
  Cell cell;
  cell.label = std::move(label);
  cell.run = std::move(fn);
  cell.format = std::move(format);
  cells_.push_back(std::move(cell));
}

std::vector<std::vector<std::string>> Sweep::Run() {
  const int replicates = options_.replicates;
  const size_t total_runs =
      cells_.size() * static_cast<size_t>(replicates);
  records_.assign(total_runs, exp::RunRecord{});

  // One spec per cell; ExpandReplicates fans each out over RNG streams
  // 0..R-1, cell-major, so cell c's replicate r writes records_[c*R + r]
  // (its expanded submission index) — a private slot, no locking needed.
  std::vector<runner::RunSpec> specs;
  specs.reserve(cells_.size());
  for (size_t c = 0; c < cells_.size(); ++c) {
    runner::RunSpec spec;
    spec.label = cells_[c].label;
    spec.run = [this, c, replicates](const runner::RunContext& ctx)
        -> StatusOr<std::vector<std::string>> {
      // Traced runs register their buffers under this ambient label; the
      // replicate suffix keeps labels unique so the merged trace orders
      // deterministically for any job count.
      obs::ScopedRunLabel run_label(
          cells_[c].label + " r" +
          std::to_string(ctx.index % static_cast<size_t>(replicates)));
      StatusOr<exp::RunRecord> record = cells_[c].run(ctx);
      if (!record.ok()) return record.status();
      exp::RunRecord r = std::move(record).value();
      r.experiment = experiment_;
      r.cell = cells_[c].label;
      r.replicate = static_cast<int>(ctx.index % replicates);
      r.seed = ctx.seed;
      records_[ctx.index] = std::move(r);
      return std::vector<std::string>{};
    };
    specs.push_back(std::move(spec));
  }

  const uint64_t events0 = sim::RetiredDispatchedEvents();
  const auto t0 = std::chrono::steady_clock::now();
  runner::SweepRunner sweep_runner(options_.sweep);
  std::vector<runner::RunResult> results = sweep_runner.Run(
      runner::SweepRunner::ExpandReplicates(std::move(specs), replicates));
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // Every experiment's EventQueue has been destroyed by now, so the
  // retired-events counter covers the whole sweep (no per-event cost).
  const uint64_t events = sim::RetiredDispatchedEvents() - events0;
  double run_s = 0;
  for (const runner::RunResult& r : results) {
    DieOnError(r.status, r.label);
    run_s += r.wall_ms / 1000.0;
  }
  std::fprintf(stderr,
               "sweep: %zu runs on %d thread(s), wall %.1fs, "
               "sum-of-runs %.1fs (%.1fx)\n",
               results.size(), sweep_runner.jobs(), wall_s, run_s,
               wall_s > 0 ? run_s / wall_s : 0.0);
  std::fprintf(stderr,
               "sweep: %llu events dispatched, %.2fM events/s wall\n",
               static_cast<unsigned long long>(events),
               wall_s > 0 ? events / wall_s / 1e6 : 0.0);

  // Aggregate each cell across its replicates and format its row.
  std::vector<std::vector<std::string>> rows;
  rows.reserve(cells_.size());
  for (size_t c = 0; c < cells_.size(); ++c) {
    stats::MetricSet metrics;
    for (int r = 0; r < replicates; ++r) {
      metrics.AddAll(records_[c * replicates + r].metrics);
    }
    CellStats cell_stats(replicates,
                         metrics.Summarize(options_.confidence));
    rows.push_back(cells_[c].format(cell_stats));
  }

  std::string jsonl = options_.jsonl_path;
  if (jsonl.empty() && replicates > 1) jsonl = experiment_ + ".jsonl";
  if (!jsonl.empty()) {
    DieOnError(exp::WriteJsonl(jsonl, records_), "write " + jsonl);
    std::fprintf(stderr, "sweep: wrote %zu records -> %s\n",
                 records_.size(), jsonl.c_str());
  }
  if (!options_.csv_path.empty()) {
    DieOnError(exp::WriteCsv(options_.csv_path, records_),
               "write " + options_.csv_path);
    std::fprintf(stderr, "sweep: wrote %zu records -> %s\n",
                 records_.size(), options_.csv_path.c_str());
    // Windowed time-series companion (long format, one row per window);
    // written only when some record carries a series (--window-ms).
    const std::string series_path = options_.csv_path + ".series.csv";
    DieOnError(exp::WriteSeriesCsv(series_path, records_),
               "write " + series_path);
  }

  if (options_.obs.trace && !options_.trace_path.empty()) {
    // Wall-clock lanes (pid 0 in the export): one span per runner job,
    // on a timeline starting at the sweep's earliest run.
    double first_start = 0;
    bool have_start = false;
    for (const runner::RunResult& r : results) {
      if (!have_start || r.wall_start_ms < first_start) {
        first_start = r.wall_start_ms;
        have_start = true;
      }
    }
    for (const runner::RunResult& r : results) {
      obs::TraceCollector::Global().AddWallSpan(
          r.label, r.wall_start_ms - first_start, r.wall_ms);
    }
    obs::WriteChromeTrace(options_.trace_path);
  }
  return rows;
}

}  // namespace rofs::bench
