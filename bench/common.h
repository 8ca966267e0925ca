#ifndef ROFS_BENCH_COMMON_H_
#define ROFS_BENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/extent_allocator.h"
#include "alloc/restricted_buddy.h"
#include "disk/disk_system.h"
#include "exp/experiment.h"
#include "exp/run_record.h"
#include "obs/options.h"
#include "runner/sweep_runner.h"
#include "stats/summary.h"
#include "workload/workloads.h"

namespace rofs::bench {

/// Allocator factories for the policies of paper section 4, parameterized
/// the way the paper sweeps them.
exp::Experiment::AllocatorFactory BuddyFactory();

/// `num_sizes` in 2..5 selects a prefix-with-largest subset of the ladder
/// {1K, 8K, 64K, 1M, 16M} exactly as the paper's table in section 4.2.
exp::Experiment::AllocatorFactory RestrictedBuddyFactory(int num_sizes,
                                                         uint32_t grow_factor,
                                                         bool clustered);

exp::Experiment::AllocatorFactory ExtentFactory(workload::WorkloadKind kind,
                                                int num_ranges,
                                                alloc::FitPolicy fit);

exp::Experiment::AllocatorFactory FixedBlockFactory(
    workload::WorkloadKind kind);

/// The restricted-buddy block-size ladder for a size count (disk units).
std::vector<uint64_t> BlockSizeLadderDu(int num_sizes);

/// The paper's default disk system: 8 striped CDC Wren IV drives.
disk::DiskSystemConfig PaperDiskConfig();

/// Standard experiment settings for the reproduction benches. Honors the
/// ROFS_FAST environment variable (any non-empty value): shorter
/// measurement windows for smoke runs. Also carries the observability
/// options the current Sweep was constructed with (see BenchOptions::obs),
/// so every driver's cell picks up --metrics / --trace-out without
/// driver-side plumbing.
exp::ExperimentConfig BenchExperimentConfig();

/// Fails loudly: prints the status and exits non-zero. Benches prefer a
/// visible crash over silently missing table rows.
void DieOnError(const Status& status, const std::string& context);

/// Dies through DieOnError when ROFS_SIM_THREADS or ROFS_SIM_WHEEL is
/// set: both selected the removed sharded engine and timer wheel, and a
/// run that silently ignored them would look like one that honored them.
/// Every Sweep calls it; drivers without a Sweep call it first thing.
void RejectRemovedEngineEnv();

/// Parses the sweep-parallelism knobs shared by every bench driver:
/// `--jobs N` / `--jobs=N` / `-j N` on the command line, else the
/// ROFS_JOBS environment variable, else the hardware thread count
/// (resolution happens inside SweepRunner).
runner::SweepOptions ParseSweepOptions(int argc, char** argv);

/// Every knob a bench driver accepts: the sweep-parallelism options plus
/// the replication and artifact flags this layer adds on top.
struct BenchOptions {
  runner::SweepOptions sweep;
  /// Replicates per grid cell: `--replicates N` / `--replicates=N` /
  /// `-r N`, else ROFS_REPLICATES, else 1 (resolved in the Sweep ctor).
  int replicates = 0;
  /// Two-sided confidence level of the reported intervals.
  double confidence = 0.95;
  /// `--jsonl PATH` / ROFS_JSONL and `--csv PATH` / ROFS_CSV artifact
  /// destinations. When replicates > 1 and no JSONL path was given, the
  /// artifact defaults to "<experiment>.jsonl" in the working directory.
  std::string jsonl_path;
  std::string csv_path;
  /// Observability: `--metrics` / ROFS_METRICS adds obs.* metric columns
  /// to the JSONL/CSV artifacts; `--trace-out PATH` / ROFS_TRACE enables
  /// sim-time tracing and writes a merged Chrome trace-event JSON
  /// (Perfetto-loadable) after the sweep; `--trace-events N` /
  /// ROFS_TRACE_EVENTS caps the per-run trace buffer; `--window-ms N` /
  /// ROFS_WINDOW_MS samples windowed time-series into the JSONL records
  /// and a "<csv>.series.csv" companion. No flag changes stdout or the
  /// artifact rows that exist without them.
  obs::Options obs;
  std::string trace_path;
  /// `--progress` / ROFS_PROGRESS: a throttled (~1/s) heartbeat on stderr
  /// with runs done/total, elapsed wall time, and an ETA. stdout stays
  /// byte-identical.
  bool progress = false;
};

BenchOptions ParseBenchOptions(int argc, char** argv);

/// Aggregated view of one grid cell handed to its formatter after all
/// replicates have run: per-metric replication summaries, plus helpers
/// that format a cell exactly like the pre-replication drivers when there
/// is a single replicate and as `mean ± 95% CI half-width` otherwise.
class CellStats {
 public:
  CellStats(int replicates, std::map<std::string, stats::Summary> summaries)
      : replicates_(replicates), summaries_(std::move(summaries)) {}

  int replicates() const { return replicates_; }
  /// Dies if the metric was never recorded (a driver/formatter mismatch
  /// is a bug, not a runtime condition).
  const stats::Summary& Of(const std::string& metric) const;
  double Mean(const std::string& metric) const { return Of(metric).mean; }

  /// Percentage cell: "88.0%" for one replicate, "88.0±1.2%" otherwise.
  std::string Pct(const std::string& metric) const;
  /// Fixed-point cell with `decimals` digits and an optional unit suffix:
  /// "3.5", "120ms"; "3.5±0.2", "120±8ms" with replicates.
  std::string Fixed(const std::string& metric, int decimals,
                    const char* suffix = "") const;

 private:
  int replicates_;
  std::map<std::string, stats::Summary> summaries_;
};

/// The sweep grid of one bench driver. Add() one cell per grid point: the
/// run callback builds its own Experiment from the context seed and
/// returns the cell's metrics as an exp::RunRecord; the formatter turns
/// the cell's aggregated CellStats into the printed table cells. Run()
/// executes cells x replicates runs on a thread pool (replicate r on RNG
/// stream r, so replicate 0 reproduces the single-run results exactly and
/// grid cells keep common random numbers), aggregates each cell across
/// its replicates, writes the JSONL/CSV artifacts, and returns the
/// formatted rows in submission order — stdout and artifacts are
/// byte-identical for any job count. Dies with the run's label on the
/// first failed run. Progress and wall-clock timing go to stderr so they
/// never perturb the comparable output.
class Sweep {
 public:
  using RecordFn =
      std::function<StatusOr<exp::RunRecord>(const runner::RunContext&)>;
  using FormatFn = std::function<std::vector<std::string>(const CellStats&)>;

  Sweep(int argc, char** argv);

  /// Adds one grid cell.
  void Add(std::string label, RecordFn fn, FormatFn format);

  /// Runs all cells (and their replicates); returns each cell's formatted
  /// row in submission order.
  std::vector<std::vector<std::string>> Run();

  int jobs() const { return options_.sweep.jobs; }
  int replicates() const { return options_.replicates; }

  /// All replicate records in cell-major order (cell c, replicate r at
  /// index c * replicates + r); filled by Run().
  const std::vector<exp::RunRecord>& records() const { return records_; }

 private:
  struct Cell {
    std::string label;
    RecordFn run;
    FormatFn format;
  };

  BenchOptions options_;
  std::string experiment_;
  std::vector<Cell> cells_;
  std::vector<exp::RunRecord> records_;
};

}  // namespace rofs::bench

#endif  // ROFS_BENCH_COMMON_H_
