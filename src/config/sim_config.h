#ifndef ROFS_CONFIG_SIM_CONFIG_H_
#define ROFS_CONFIG_SIM_CONFIG_H_

#include <string>

#include "config/config_parser.h"
#include "disk/disk_system.h"
#include "exp/experiment.h"
#include "workload/aging.h"
#include "workload/file_type.h"

namespace rofs::config {

/// Which tests a config asks for.
struct TestSelection {
  bool allocation = true;
  bool application = true;
  bool sequential = true;
  /// The long-horizon aging study (`run = aging`); off by default — it is
  /// a separate, much longer experiment than the paper's three tests.
  bool aging = false;
};

/// A fully materialized simulation described by a config file: the disk
/// system, the allocation policy, the workload, and the experiment
/// parameters — the same knobs the paper's own simulator exposed.
struct SimConfig {
  disk::DiskSystemConfig disk;
  exp::Experiment::AllocatorFactory allocator_factory;
  std::string policy_label;
  workload::WorkloadSpec workload;
  exp::ExperimentConfig experiment;
  TestSelection tests;
  /// Parameters of the aging study (`[aging]`); used when tests.aging.
  workload::AgingOptions aging;
};

/// Builds a SimConfig from a parsed config file.
///
/// Sections:
///   [disk]      disks, cylinders, platters, track_bytes, rotation_ms,
///               seek_ms, seek_incremental_ms, layout, stripe_unit,
///               disk_unit, scheduler = fcfs|sstf|scan|cscan|look|batch(N)
///   [policy]    kind = buddy | restricted-buddy | extent | fixed | log
///               (plus kind-specific keys: block_sizes/grow_factor/
///               clustered; ranges/fit; block; segment; max_extent)
///   [test]      run = alloc,app,seq,aging | all ("all" means the
///               paper's three tests; aging must be asked for by name);
///               seed, sample_interval,
///               tolerance_pp, warmup, min_measure, max_measure,
///               fill_lower, fill_upper
///   [sim]       rejected: its keys (threads, user_timer, wheel_tick)
///               were removed with the sharded engine and the timer wheel
///   [workload]  builtin = TS | TP | SC   (optional shortcut);
///               arrivals = closed | poisson(RATE) |
///               mmpp(RATE[,BURST,ON,OFF]) | pareto(RATE[,ALPHA])
///               (RATE in ops/s); zipf_theta = 0..  (0 = uniform picks)
///   [aging]     seed (defaults to the test seed), target_util,
///               ops_per_round, rounds, probe_files
///   [filetype NAME]  every Table 2 parameter (files, users,
///               process_time, hit_frequency, rw_bytes, rw_dev,
///               alloc_size, extend_bytes, extend_dev, truncate_bytes,
///               initial, initial_dev, read, write, extend, delete_ratio,
///               access = seq|random)
StatusOr<SimConfig> BuildSimConfig(const ConfigFile& file);

/// Convenience: parse + build from a file path.
StatusOr<SimConfig> LoadSimConfig(const std::string& path);

}  // namespace rofs::config

#endif  // ROFS_CONFIG_SIM_CONFIG_H_
