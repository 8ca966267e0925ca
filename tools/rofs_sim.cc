// rofs_sim — the configurable simulator command-line tool.
//
// Reads an INI-style config describing the disk system, the allocation
// policy, the workload, and the tests to run (the same knobs the paper's
// simulator exposed), runs them, and prints the results.
//
// Usage:
//   rofs_sim <config.ini>
//   rofs_sim --dump <config.ini>           # echo the materialized config
//   rofs_sim --stats <config.ini>          # add per-type/per-op stats
//   rofs_sim --trace out.csv <config.ini>  # dump the application-test
//                                          # operation trace as CSV
//   rofs_sim --jobs N <config.ini>         # run independent tests on N
//                                          # threads (also: ROFS_JOBS)
//   rofs_sim --replicates N <config.ini>   # run every test N times on
//                                          # independent seed streams and
//                                          # report mean +- 95% CI (also:
//                                          # ROFS_REPLICATES)
//   rofs_sim --jsonl out.jsonl             # write one RunRecord per
//   rofs_sim --csv out.csv                 # replicate (also: ROFS_JSONL
//                                          # / ROFS_CSV)
//   rofs_sim --metrics <config.ini>        # add obs.* metric columns to
//                                          # the artifacts (also:
//                                          # ROFS_METRICS)
//   rofs_sim --trace-out t.json            # write a Chrome trace-event
//                                          # JSON (Perfetto) of the
//                                          # measured phases (also:
//                                          # ROFS_TRACE; buffer size:
//                                          # --trace-events N /
//                                          # ROFS_TRACE_EVENTS)
//   rofs_sim --trace-jsonl t.jsonl         # dump the operation trace as
//                                          # JSONL with a trailing
//                                          # dropped-records summary line
//   rofs_sim --window-ms N                 # sample windowed time-series
//                                          # into the JSONL records and a
//                                          # <csv>.series.csv companion
//                                          # (also: ROFS_WINDOW_MS;
//                                          # overrides [obs] window_ms)
//
// The enabled tests (allocation; application+sequential; the aging study
// when [test] run includes "aging") are independent
// simulations, so --jobs N > 1 runs them concurrently; the printed output
// is byte-identical for any job count. --trace forces serial execution
// (the trace spans every test's operation stream, in order). With
// replicates, the trace and --stats report cover replicate 0 only (the
// stream that reproduces the single-run results).
//
// See configs/ for ready-made files reproducing the paper's setups.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "alloc/allocator.h"
#include "config/sim_config.h"
#include "fs/read_optimized_fs.h"
#include "workload/aging.h"
#include "obs/options.h"
#include "obs/trace_writer.h"
#include "sim/event_queue.h"
#include "exp/reporting.h"
#include "exp/run_record.h"
#include "exp/trace.h"
#include "runner/sweep_runner.h"
#include "stats/summary.h"
#include "util/table.h"

using namespace rofs;

namespace {

struct Options {
  std::string path;
  bool dump_only = false;
  bool stats = false;
  std::string trace_path;
  int jobs = 0;        // 0: ROFS_JOBS, else hardware threads.
  int replicates = 0;  // 0: ROFS_REPLICATES, else 1.
  std::string jsonl_path;
  std::string csv_path;
  /// Observability (see bench/common.h for the same knobs): obs.metrics
  /// from --metrics / ROFS_METRICS, obs.trace set when trace_out (from
  /// --trace-out / ROFS_TRACE) is non-empty.
  obs::Options obs;
  std::string trace_out;
  /// Operation-trace JSONL destination (--trace-jsonl); like --trace, it
  /// records replicate 0's operation stream and forces --jobs 1.
  std::string trace_jsonl_path;
};

int Run(const Options& opts) {
  const std::string& path = opts.path;
  const bool dump_only = opts.dump_only;
  auto sim = config::LoadSimConfig(path);
  if (!sim.ok()) {
    std::fprintf(stderr, "rofs_sim: %s\n", sim.status().ToString().c_str());
    return 1;
  }
  // CLI observability knobs override the config file's [obs] section; a
  // window_ms only present in the config still takes effect.
  obs::Options obs_opts = opts.obs;
  if (obs_opts.window_ms <= 0) {
    obs_opts.window_ms = sim->experiment.obs.window_ms;
  }

  disk::DiskSystem probe(sim->disk);
  std::printf("config:    %s\n", path.c_str());
  std::printf("disk:      %s\n", probe.DescribeConfig().c_str());
  std::printf("policy:    %s\n", sim->policy_label.c_str());
  std::printf("workload:  %s (%zu file types, %s initial)\n",
              sim->workload.name.c_str(), sim->workload.types.size(),
              FormatBytes(sim->workload.TotalInitialBytes()).c_str());
  for (const auto& t : sim->workload.types) {
    std::printf(
        "  - %-12s files=%u users=%u initial=%s rw=%s "
        "r/w/e=%.2f/%.2f/%.2f\n",
        t.name.c_str(), t.num_files, t.num_users,
        FormatBytes(t.initial_bytes_mean).c_str(),
        FormatBytes(t.rw_bytes_mean).c_str(), t.read_ratio, t.write_ratio,
        t.extend_ratio);
  }
  std::printf("\n");
  if (dump_only) return 0;

  runner::SweepOptions sweep_options;
  sweep_options.jobs = runner::SweepRunner::ResolveJobs(opts.jobs);
  const int replicates =
      runner::SweepRunner::ResolveReplicates(opts.replicates);
  const bool tracing =
      !opts.trace_path.empty() || !opts.trace_jsonl_path.empty();
  if (tracing && sweep_options.jobs > 1) {
    std::fprintf(stderr,
                 "rofs_sim: --trace/--trace-jsonl record every test's "
                 "operation stream in order; forcing --jobs 1\n");
    sweep_options.jobs = 1;
  }

  exp::OpTrace trace;
  std::string stats_report;
  const config::SimConfig* cfg = &*sim;

  // Each enabled test group is an independent simulation (every Run*
  // call builds a fresh one), so they parallelize as a tiny sweep.
  // Replicate r of a group runs on seed stream r (stream 0 is the config
  // seed itself) and writes its RunRecord into a private slot; the trace
  // and --stats report attach to replicate 0 only.
  std::vector<exp::RunRecord> records;
  std::vector<std::string> group_labels;
  std::vector<runner::RunSpec> specs;
  if (cfg->tests.allocation) {
    runner::RunSpec spec;
    spec.label = "allocation test";
    spec.base_seed = cfg->experiment.seed;
    spec.run = [cfg, tracing, &trace, replicates, &records,
                obs = obs_opts, label = spec.label](
                   const runner::RunContext& ctx)
        -> StatusOr<std::vector<std::string>> {
      obs::ScopedRunLabel run_label(
          label + " r" +
          std::to_string(ctx.index % static_cast<size_t>(replicates)));
      exp::ExperimentConfig ec = cfg->experiment;
      ec.seed = ctx.seed;
      ec.obs = obs;
      exp::Experiment experiment(cfg->workload, cfg->allocator_factory,
                                 cfg->disk, ec);
      if (tracing && ctx.index % replicates == 0) {
        experiment.set_instrument(
            [&trace](workload::OpGenerator* gen) { trace.Attach(gen); });
      }
      auto result = experiment.RunAllocationTest();
      if (!result.ok()) return result.status();
      exp::RunRecord& record = records[ctx.index];
      record.experiment = "rofs_sim";
      record.cell = label;
      record.replicate = static_cast<int>(ctx.index % replicates);
      record.seed = ctx.seed;
      record.MergeMetrics(result->ToRecord(), "alloc.");
      return std::vector<std::string>{"allocation test:   " +
                                      exp::Summarize(*result)};
    };
    group_labels.push_back(spec.label);
    specs.push_back(std::move(spec));
  }
  if (cfg->tests.application || cfg->tests.sequential) {
    runner::RunSpec spec;
    spec.label = cfg->tests.application && cfg->tests.sequential
                     ? "performance tests"
                     : (cfg->tests.application ? "application test"
                                               : "sequential test");
    spec.base_seed = cfg->experiment.seed;
    const bool want_stats = opts.stats;
    spec.run = [cfg, tracing, &trace, want_stats, &stats_report,
                replicates, &records, obs = obs_opts, label = spec.label](
                   const runner::RunContext& ctx)
        -> StatusOr<std::vector<std::string>> {
      const bool primary = ctx.index % replicates == 0;
      obs::ScopedRunLabel run_label(
          label + " r" +
          std::to_string(ctx.index % static_cast<size_t>(replicates)));
      exp::ExperimentConfig ec = cfg->experiment;
      ec.seed = ctx.seed;
      ec.obs = obs;
      exp::Experiment experiment(cfg->workload, cfg->allocator_factory,
                                 cfg->disk, ec);
      if (tracing && primary) {
        experiment.set_instrument(
            [&trace](workload::OpGenerator* gen) { trace.Attach(gen); });
      }
      if (want_stats && primary) experiment.set_stats_sink(&stats_report);
      exp::RunRecord& record = records[ctx.index];
      record.experiment = "rofs_sim";
      record.cell = label;
      record.replicate = static_cast<int>(ctx.index % replicates);
      record.seed = ctx.seed;
      if (cfg->tests.application && cfg->tests.sequential) {
        auto pair = experiment.RunPerformancePair();
        if (!pair.ok()) return pair.status();
        record.MergeMetrics(pair->application.ToRecord(), "app.");
        record.MergeMetrics(pair->sequential.ToRecord(), "seq.");
        return std::vector<std::string>{
            "application test:  " + exp::Summarize(pair->application),
            "sequential test:   " + exp::Summarize(pair->sequential)};
      }
      if (cfg->tests.application) {
        auto result = experiment.RunApplicationTest();
        if (!result.ok()) return result.status();
        record.MergeMetrics(result->ToRecord(), "app.");
        return std::vector<std::string>{"application test:  " +
                                        exp::Summarize(*result)};
      }
      auto result = experiment.RunSequentialTest();
      if (!result.ok()) return result.status();
      record.MergeMetrics(result->ToRecord(), "seq.");
      return std::vector<std::string>{"sequential test:   " +
                                      exp::Summarize(*result)};
    };
    group_labels.push_back(spec.label);
    specs.push_back(std::move(spec));
  }
  if (cfg->tests.aging) {
    runner::RunSpec spec;
    spec.label = "aging study";
    spec.base_seed = cfg->aging.seed;
    spec.run = [cfg, replicates, &records, label = spec.label](
                   const runner::RunContext& ctx)
        -> StatusOr<std::vector<std::string>> {
      obs::ScopedRunLabel run_label(
          label + " r" +
          std::to_string(ctx.index % static_cast<size_t>(replicates)));
      // The aging study runs against a passive (queue-free) file system:
      // churn with I/O disabled, probes at a monotonic clock. No event
      // queue, so its output is byte-identical for any --jobs setting
      // by construction.
      disk::DiskSystem disk(cfg->disk);
      std::unique_ptr<alloc::Allocator> allocator =
          cfg->allocator_factory(disk.capacity_du());
      fs::ReadOptimizedFs fs(allocator.get(), &disk,
                             cfg->experiment.fs_options);
      workload::AgingOptions options = cfg->aging;
      options.seed = ctx.seed;
      workload::AgingDriver driver(&cfg->workload, &fs, options);
      ROFS_RETURN_IF_ERROR(driver.CreateInitialFiles());
      std::vector<std::string> lines;
      lines.push_back(FormatString(
          "aging study:       %d rounds x %llu ops, probing %u files",
          options.rounds,
          static_cast<unsigned long long>(options.ops_per_round),
          options.probe_files));
      for (int r = 0; r < options.rounds; ++r) {
        const workload::AgingRound round = driver.RunRound();
        lines.push_back(FormatString(
            "  round %3d: util=%.3f read_bw=%.4f extents/file=%.2f "
            "int_frag=%.3f failed=%llu",
            round.round, round.utilization, round.read_bw_frac,
            round.extents_per_file, round.internal_frag,
            static_cast<unsigned long long>(round.failed_allocs)));
      }
      const std::vector<workload::AgingRound>& rounds = driver.rounds();
      const workload::AgingRound& first = rounds.front();
      const workload::AgingRound& last = rounds.back();
      const int steady = driver.DetectSteadyRound();
      const double retained = first.read_bw_frac > 0.0
                                  ? last.read_bw_frac / first.read_bw_frac
                                  : 0.0;
      lines.push_back(FormatString(
          "aging steady:      %s, read_bw %.4f -> %.4f (%.1f%% retained)",
          steady >= 0 ? FormatString("round %d", steady).c_str()
                      : "not reached",
          first.read_bw_frac, last.read_bw_frac, retained * 100.0));
      exp::RunRecord& record = records[ctx.index];
      record.experiment = "rofs_sim";
      record.cell = label;
      record.replicate = static_cast<int>(ctx.index % replicates);
      record.seed = ctx.seed;
      exp::RunRecord m;
      m.Set("rounds", static_cast<double>(rounds.size()));
      m.Set("churn_ops", static_cast<double>(driver.churn_ops()));
      m.Set("steady_round", static_cast<double>(steady));
      m.Set("read_bw_initial", first.read_bw_frac);
      m.Set("read_bw_final", last.read_bw_frac);
      m.Set("read_bw_retained", retained);
      m.Set("util_final", last.utilization);
      m.Set("extents_per_file_final", last.extents_per_file);
      m.Set("internal_frag_final", last.internal_frag);
      m.Set("failed_allocs", static_cast<double>(last.failed_allocs));
      record.MergeMetrics(m, "aging.");
      return lines;
    };
    group_labels.push_back(spec.label);
    specs.push_back(std::move(spec));
  }

  records.assign(specs.size() * static_cast<size_t>(replicates),
                 exp::RunRecord{});
  const uint64_t events0 = sim::RetiredDispatchedEvents();
  const auto t0 = std::chrono::steady_clock::now();
  runner::SweepRunner sweep_runner(sweep_options);
  std::vector<runner::RunResult> results = sweep_runner.Run(
      runner::SweepRunner::ExpandReplicates(std::move(specs), replicates));
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const uint64_t events = sim::RetiredDispatchedEvents() - events0;
  std::fprintf(stderr, "rofs_sim: %llu events dispatched, %.2fM events/s\n",
               static_cast<unsigned long long>(events),
               wall_s > 0 ? events / wall_s / 1e6 : 0.0);
  for (const runner::RunResult& result : results) {
    if (!result.status.ok()) {
      std::fprintf(stderr, "%s: %s\n", result.label.c_str(),
                   result.status.ToString().c_str());
      return 1;
    }
    // One replicate prints exactly like the pre-replication tool; with
    // more, the per-replicate lines are replaced by summary tables below.
    if (replicates == 1) {
      for (const std::string& line : result.cells) {
        std::printf("%s\n", line.c_str());
        std::fflush(stdout);
      }
    }
  }

  if (replicates > 1) {
    for (size_t g = 0; g < group_labels.size(); ++g) {
      stats::MetricSet metrics;
      for (int r = 0; r < replicates; ++r) {
        metrics.AddAll(records[g * static_cast<size_t>(replicates) + r]
                           .metrics);
      }
      std::printf("%s (%d replicates, mean +- 95%% CI):\n%s\n",
                  group_labels[g].c_str(), replicates,
                  exp::SummaryTable(metrics.Summarize(0.95)).c_str());
      std::fflush(stdout);
    }
  }

  std::string jsonl = opts.jsonl_path;
  if (jsonl.empty() && replicates > 1) jsonl = "rofs_sim.jsonl";
  if (!jsonl.empty()) {
    const Status ws = exp::WriteJsonl(jsonl, records);
    if (!ws.ok()) {
      std::fprintf(stderr, "jsonl: %s\n", ws.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "rofs_sim: wrote %zu records -> %s\n",
                 records.size(), jsonl.c_str());
  }
  if (!opts.csv_path.empty()) {
    const Status ws = exp::WriteCsv(opts.csv_path, records);
    if (!ws.ok()) {
      std::fprintf(stderr, "csv: %s\n", ws.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "rofs_sim: wrote %zu records -> %s\n",
                 records.size(), opts.csv_path.c_str());
    // Windowed-series companion; written only when a record carries one.
    const std::string series_path = opts.csv_path + ".series.csv";
    const Status ss = exp::WriteSeriesCsv(series_path, records);
    if (!ss.ok()) {
      std::fprintf(stderr, "csv: %s\n", ss.ToString().c_str());
      return 1;
    }
  }

  if (opts.obs.trace && !opts.trace_out.empty()) {
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
    obs::WriteChromeTrace(opts.trace_out);
  }

  if (opts.stats && !stats_report.empty()) {
    std::printf("\nper-type operation statistics (application phase):\n%s",
                stats_report.c_str());
  }
  if (!opts.trace_path.empty()) {
    const Status ws = trace.WriteCsv(opts.trace_path, sim->workload);
    if (!ws.ok()) {
      std::fprintf(stderr, "trace: %s\n", ws.ToString().c_str());
    } else {
      std::printf("trace:             %zu ops -> %s\n", trace.size(),
                  opts.trace_path.c_str());
    }
  }
  if (!opts.trace_jsonl_path.empty()) {
    const Status ws = trace.WriteJsonl(opts.trace_jsonl_path, sim->workload);
    if (!ws.ok()) {
      std::fprintf(stderr, "trace: %s\n", ws.ToString().c_str());
    } else {
      std::printf("trace:             %zu ops -> %s\n", trace.size(),
                  opts.trace_jsonl_path.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IONBF, 0);
  Options opts;
  bool bad = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dump") == 0) {
      opts.dump_only = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      opts.stats = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      opts.trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-jsonl") == 0 && i + 1 < argc) {
      opts.trace_jsonl_path = argv[++i];
    } else if (std::strncmp(argv[i], "--trace-jsonl=", 14) == 0) {
      opts.trace_jsonl_path = argv[i] + 14;
    } else if (std::strcmp(argv[i], "--window-ms") == 0 && i + 1 < argc) {
      opts.obs.window_ms = std::atof(argv[++i]);
    } else if (std::strncmp(argv[i], "--window-ms=", 12) == 0) {
      opts.obs.window_ms = std::atof(argv[i] + 12);
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      opts.obs.metrics = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      opts.trace_out = argv[++i];
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      opts.trace_out = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--trace-events") == 0 && i + 1 < argc) {
      opts.obs.trace_events = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strncmp(argv[i], "--trace-events=", 15) == 0) {
      opts.obs.trace_events = static_cast<size_t>(std::atoll(argv[i] + 15));
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      opts.jobs = std::atoi(argv[++i]);
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      opts.jobs = std::atoi(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--sim-threads", 13) == 0) {
      std::fprintf(stderr,
                   "rofs_sim: --sim-threads was removed with the sharded "
                   "engine; every run uses the single event heap\n");
      return 2;
    } else if (std::strcmp(argv[i], "--replicates") == 0 && i + 1 < argc) {
      opts.replicates = std::atoi(argv[++i]);
    } else if (std::strncmp(argv[i], "--replicates=", 13) == 0) {
      opts.replicates = std::atoi(argv[i] + 13);
    } else if (std::strcmp(argv[i], "--jsonl") == 0 && i + 1 < argc) {
      opts.jsonl_path = argv[++i];
    } else if (std::strncmp(argv[i], "--jsonl=", 8) == 0) {
      opts.jsonl_path = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      opts.csv_path = argv[++i];
    } else if (std::strncmp(argv[i], "--csv=", 6) == 0) {
      opts.csv_path = argv[i] + 6;
    } else if (opts.path.empty() && argv[i][0] != '-') {
      opts.path = argv[i];
    } else {
      bad = true;
      break;
    }
  }
  if (opts.jsonl_path.empty()) {
    if (const char* env = std::getenv("ROFS_JSONL");
        env != nullptr && env[0] != '\0') {
      opts.jsonl_path = env;
    }
  }
  if (opts.csv_path.empty()) {
    if (const char* env = std::getenv("ROFS_CSV");
        env != nullptr && env[0] != '\0') {
      opts.csv_path = env;
    }
  }
  if (!opts.obs.metrics) {
    if (const char* env = std::getenv("ROFS_METRICS");
        env != nullptr && env[0] != '\0') {
      opts.obs.metrics = true;
    }
  }
  if (opts.trace_out.empty()) {
    if (const char* env = std::getenv("ROFS_TRACE");
        env != nullptr && env[0] != '\0') {
      opts.trace_out = env;
    }
  }
  if (const char* env = std::getenv("ROFS_TRACE_EVENTS");
      env != nullptr && env[0] != '\0' &&
      opts.obs.trace_events == obs::Options{}.trace_events) {
    opts.obs.trace_events = static_cast<size_t>(std::atoll(env));
  }
  if (opts.obs.window_ms <= 0) {
    if (const char* env = std::getenv("ROFS_WINDOW_MS");
        env != nullptr && env[0] != '\0') {
      opts.obs.window_ms = std::atof(env);
    }
  }
  opts.obs.trace = !opts.trace_out.empty();
  if (bad || opts.path.empty()) {
    std::fprintf(stderr,
                 "usage: %s [--dump] [--stats] [--trace out.csv] "
                 "[--trace-jsonl out.jsonl] [--metrics] "
                 "[--trace-out out.json] [--trace-events N] "
                 "[--window-ms N] [--jobs N] "
                 "[--replicates N] [--jsonl out.jsonl] [--csv out.csv] "
                 "<config.ini>\n",
                 argv[0]);
    return 2;
  }
  return Run(opts);
}
