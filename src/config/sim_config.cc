#include "config/sim_config.h"

#include <algorithm>
#include <memory>

#include "alloc/buddy_allocator.h"
#include "alloc/extent_allocator.h"
#include "alloc/fixed_block_allocator.h"
#include "alloc/log_structured_allocator.h"
#include "alloc/restricted_buddy.h"
#include "util/table.h"
#include "util/units.h"
#include "workload/workloads.h"

namespace rofs::config {

namespace {

StatusOr<disk::DiskSystemConfig> BuildDisk(const Section* section) {
  disk::DiskSystemConfig cfg = disk::DiskSystemConfig::Array(8);
  if (section == nullptr) return cfg;
  ROFS_ASSIGN_OR_RETURN(const int64_t disks, section->GetIntOr("disks", 8));
  if (disks < 1 || disks > 1024) {
    return Status::InvalidArgument("[disk] disks out of range");
  }
  disk::DiskGeometry g = disk::CdcWrenIV();
  ROFS_ASSIGN_OR_RETURN(const int64_t cylinders,
                        section->GetIntOr("cylinders", g.cylinders));
  ROFS_ASSIGN_OR_RETURN(const int64_t platters,
                        section->GetIntOr("platters", g.platters));
  ROFS_ASSIGN_OR_RETURN(const uint64_t track,
                        section->GetSizeOr("track_bytes", g.track_bytes));
  ROFS_ASSIGN_OR_RETURN(const double rotation,
                        section->GetDoubleOr("rotation_ms", g.rotation_ms));
  ROFS_ASSIGN_OR_RETURN(
      const double seek,
      section->GetDoubleOr("seek_ms", g.single_track_seek_ms));
  ROFS_ASSIGN_OR_RETURN(
      const double seek_inc,
      section->GetDoubleOr("seek_incremental_ms", g.seek_incremental_ms));
  g.cylinders = static_cast<uint32_t>(cylinders);
  g.platters = static_cast<uint32_t>(platters);
  g.track_bytes = track;
  g.rotation_ms = rotation;
  g.single_track_seek_ms = seek;
  g.seek_incremental_ms = seek_inc;
  cfg.disks.assign(static_cast<size_t>(disks), g);

  ROFS_ASSIGN_OR_RETURN(const std::string layout,
                        section->GetStringOr("layout", "striped"));
  if (layout == "striped") {
    cfg.layout = disk::LayoutKind::kStriped;
  } else if (layout == "mirrored") {
    cfg.layout = disk::LayoutKind::kMirrored;
  } else if (layout == "raid5") {
    cfg.layout = disk::LayoutKind::kRaid5;
  } else if (layout == "parity-striped") {
    cfg.layout = disk::LayoutKind::kParityStriped;
  } else {
    return Status::InvalidArgument("[disk] unknown layout '" + layout + "'");
  }
  ROFS_ASSIGN_OR_RETURN(
      cfg.stripe_unit_bytes,
      section->GetSizeOr("stripe_unit", cfg.stripe_unit_bytes));
  ROFS_ASSIGN_OR_RETURN(cfg.disk_unit_bytes,
                        section->GetSizeOr("disk_unit", cfg.disk_unit_bytes));
  ROFS_ASSIGN_OR_RETURN(const std::string rotation_model,
                        section->GetStringOr("rotation", "mean"));
  if (rotation_model == "mean") {
    cfg.rotation_model = disk::RotationModel::kMeanLatency;
  } else if (rotation_model == "tracked") {
    cfg.rotation_model = disk::RotationModel::kTracked;
  } else {
    return Status::InvalidArgument("[disk] unknown rotation model '" +
                                   rotation_model + "'");
  }
  if (cfg.disk_unit_bytes == 0 ||
      cfg.stripe_unit_bytes % cfg.disk_unit_bytes != 0) {
    return Status::InvalidArgument(
        "[disk] stripe_unit must be a multiple of disk_unit");
  }
  ROFS_ASSIGN_OR_RETURN(const std::string scheduler,
                        section->GetStringOr("scheduler", "fcfs"));
  StatusOr<sched::SchedulerSpec> spec = sched::ParseSchedulerSpec(scheduler);
  if (!spec.ok()) {
    return Status::InvalidArgument("[disk] " + spec.status().message());
  }
  cfg.scheduler = *spec;
  return cfg;
}

StatusOr<exp::Experiment::AllocatorFactory> BuildPolicy(
    const Section* section, uint64_t du_bytes, std::string* label) {
  std::string kind = "restricted-buddy";
  if (section != nullptr) {
    ROFS_ASSIGN_OR_RETURN(kind, section->GetStringOr("kind", kind));
  }
  *label = kind;
  if (kind == "buddy") {
    uint64_t max_extent = 64 * kMiB;
    if (section != nullptr) {
      ROFS_ASSIGN_OR_RETURN(max_extent,
                            section->GetSizeOr("max_extent", max_extent));
    }
    const uint64_t max_extent_du =
        NextPowerOfTwo(std::max<uint64_t>(1, max_extent / du_bytes));
    return exp::Experiment::AllocatorFactory(
        [max_extent_du](uint64_t total_du)
            -> std::unique_ptr<alloc::Allocator> {
          return std::make_unique<alloc::BuddyAllocator>(total_du,
                                                         max_extent_du);
        });
  }
  if (kind == "restricted-buddy") {
    alloc::RestrictedBuddyConfig cfg;
    if (section != nullptr && section->Has("block_sizes")) {
      ROFS_ASSIGN_OR_RETURN(const std::vector<uint64_t> sizes,
                            section->GetSizeList("block_sizes"));
      cfg.block_sizes_du.clear();
      for (uint64_t s : sizes) {
        if (s % du_bytes != 0) {
          return Status::InvalidArgument(
              "[policy] block size not a multiple of the disk unit");
        }
        cfg.block_sizes_du.push_back(s / du_bytes);
      }
    }
    if (section != nullptr) {
      ROFS_ASSIGN_OR_RETURN(const int64_t grow,
                            section->GetIntOr("grow_factor", 1));
      ROFS_ASSIGN_OR_RETURN(const bool clustered,
                            section->GetBoolOr("clustered", true));
      cfg.grow_factor = static_cast<uint32_t>(grow);
      cfg.clustered = clustered;
    }
    *label = FormatString("restricted-buddy(%s)", cfg.Label().c_str());
    return exp::Experiment::AllocatorFactory(
        [cfg](uint64_t total_du) -> std::unique_ptr<alloc::Allocator> {
          return std::make_unique<alloc::RestrictedBuddyAllocator>(total_du,
                                                                   cfg);
        });
  }
  if (kind == "extent") {
    alloc::ExtentAllocatorConfig cfg;
    if (section != nullptr && section->Has("ranges")) {
      ROFS_ASSIGN_OR_RETURN(const std::vector<uint64_t> ranges,
                            section->GetSizeList("ranges"));
      cfg.range_means_du.clear();
      for (uint64_t r : ranges) {
        cfg.range_means_du.push_back(std::max<uint64_t>(1, r / du_bytes));
      }
      std::sort(cfg.range_means_du.begin(), cfg.range_means_du.end());
    }
    if (section != nullptr) {
      ROFS_ASSIGN_OR_RETURN(const std::string fit,
                            section->GetStringOr("fit", "first-fit"));
      if (fit == "first-fit") {
        cfg.fit = alloc::FitPolicy::kFirstFit;
      } else if (fit == "best-fit") {
        cfg.fit = alloc::FitPolicy::kBestFit;
      } else {
        return Status::InvalidArgument("[policy] unknown fit '" + fit + "'");
      }
    }
    *label = "extent(" + cfg.Label() + ")";
    return exp::Experiment::AllocatorFactory(
        [cfg](uint64_t total_du) -> std::unique_ptr<alloc::Allocator> {
          return std::make_unique<alloc::ExtentAllocator>(total_du, cfg);
        });
  }
  if (kind == "fixed") {
    uint64_t block = 4 * kKiB;
    if (section != nullptr) {
      ROFS_ASSIGN_OR_RETURN(block, section->GetSizeOr("block", block));
    }
    if (block % du_bytes != 0) {
      return Status::InvalidArgument(
          "[policy] block not a multiple of the disk unit");
    }
    const uint64_t block_du = block / du_bytes;
    *label = FormatString("fixed(%s)", FormatBytes(block).c_str());
    return exp::Experiment::AllocatorFactory(
        [block_du](uint64_t total_du) -> std::unique_ptr<alloc::Allocator> {
          return std::make_unique<alloc::FixedBlockAllocator>(total_du,
                                                              block_du);
        });
  }
  if (kind == "log" || kind == "log-structured") {
    alloc::LogStructuredConfig cfg;
    if (section != nullptr) {
      ROFS_ASSIGN_OR_RETURN(const uint64_t segment,
                            section->GetSizeOr("segment", 1 * kMiB));
      cfg.segment_du = std::max<uint64_t>(1, segment / du_bytes);
    }
    *label = "log-structured";
    return exp::Experiment::AllocatorFactory(
        [cfg](uint64_t total_du) -> std::unique_ptr<alloc::Allocator> {
          return std::make_unique<alloc::LogStructuredAllocator>(total_du,
                                                                 cfg);
        });
  }
  return Status::InvalidArgument("[policy] unknown kind '" + kind + "'");
}

StatusOr<workload::FileTypeSpec> BuildFileType(const Section& s) {
  workload::FileTypeSpec t;
  t.name = s.argument.empty() ? "filetype" : s.argument;
  ROFS_ASSIGN_OR_RETURN(const int64_t files, s.GetIntOr("files", 1));
  ROFS_ASSIGN_OR_RETURN(const int64_t users, s.GetIntOr("users", 1));
  t.num_files = static_cast<uint32_t>(files);
  t.num_users = static_cast<uint32_t>(users);
  ROFS_ASSIGN_OR_RETURN(t.process_time_ms,
                        s.GetDurationMsOr("process_time", 100.0));
  ROFS_ASSIGN_OR_RETURN(t.hit_frequency_ms,
                        s.GetDurationMsOr("hit_frequency", t.process_time_ms));
  ROFS_ASSIGN_OR_RETURN(t.rw_bytes_mean, s.GetSizeOr("rw_bytes", 8 * kKiB));
  ROFS_ASSIGN_OR_RETURN(t.rw_bytes_dev, s.GetSizeOr("rw_dev", 0));
  ROFS_ASSIGN_OR_RETURN(t.alloc_size_bytes,
                        s.GetSizeOr("alloc_size", t.rw_bytes_mean));
  ROFS_ASSIGN_OR_RETURN(t.extend_bytes_mean, s.GetSizeOr("extend_bytes", 0));
  ROFS_ASSIGN_OR_RETURN(t.extend_bytes_dev, s.GetSizeOr("extend_dev", 0));
  ROFS_ASSIGN_OR_RETURN(t.truncate_bytes,
                        s.GetSizeOr("truncate_bytes", t.rw_bytes_mean));
  ROFS_ASSIGN_OR_RETURN(t.initial_bytes_mean, s.GetSizeOr("initial", 8 * kKiB));
  ROFS_ASSIGN_OR_RETURN(t.initial_bytes_dev, s.GetSizeOr("initial_dev", 0));
  ROFS_ASSIGN_OR_RETURN(t.read_ratio, s.GetDoubleOr("read", 0.6));
  ROFS_ASSIGN_OR_RETURN(t.write_ratio, s.GetDoubleOr("write", 0.2));
  ROFS_ASSIGN_OR_RETURN(t.extend_ratio, s.GetDoubleOr("extend", 0.1));
  ROFS_ASSIGN_OR_RETURN(t.delete_ratio, s.GetDoubleOr("delete_ratio", 0.0));
  ROFS_ASSIGN_OR_RETURN(const std::string access,
                        s.GetStringOr("access", "seq"));
  if (access == "seq" || access == "sequential") {
    t.access = workload::AccessPattern::kSequentialBurst;
  } else if (access == "random") {
    t.access = workload::AccessPattern::kRandom;
  } else {
    return Status::InvalidArgument("[filetype " + t.name +
                                   "] unknown access '" + access + "'");
  }
  ROFS_RETURN_IF_ERROR(t.Validate());
  return t;
}

StatusOr<workload::WorkloadSpec> BuildWorkload(const ConfigFile& file) {
  const Section* w = file.Find("workload");
  workload::WorkloadSpec spec;
  if (w != nullptr && w->Has("builtin")) {
    ROFS_ASSIGN_OR_RETURN(const std::string name, w->GetString("builtin"));
    if (name == "TS" || name == "ts") {
      spec = workload::MakeTimeSharing();
    } else if (name == "TP" || name == "tp") {
      spec = workload::MakeTransactionProcessing();
    } else if (name == "SC" || name == "sc") {
      spec = workload::MakeSuperComputer();
    } else {
      return Status::InvalidArgument("[workload] unknown builtin '" + name +
                                     "'");
    }
  } else {
    spec.name = "custom";
    for (const Section* s : file.FindAll("filetype")) {
      ROFS_ASSIGN_OR_RETURN(workload::FileTypeSpec t, BuildFileType(*s));
      spec.types.push_back(std::move(t));
    }
    if (spec.types.empty()) {
      return Status::InvalidArgument(
          "config defines no [filetype ...] sections and no [workload] "
          "builtin");
    }
  }
  if (w != nullptr) {
    // Arrival model and file-pick skew apply on top of either source;
    // the defaults reproduce the closed-loop uniform-pick behavior.
    ROFS_ASSIGN_OR_RETURN(const std::string arrivals,
                          w->GetStringOr("arrivals", "closed"));
    StatusOr<workload::ArrivalSpec> arrival_spec =
        workload::ParseArrivalSpec(arrivals);
    if (!arrival_spec.ok()) {
      return Status::InvalidArgument("[workload] " +
                                     arrival_spec.status().message());
    }
    spec.arrivals = *arrival_spec;
    ROFS_ASSIGN_OR_RETURN(spec.zipf_theta,
                          w->GetDoubleOr("zipf_theta", spec.zipf_theta));
    if (spec.zipf_theta < 0.0) {
      return Status::InvalidArgument("[workload] zipf_theta must be >= 0");
    }
  }
  return spec;
}

Status BuildFs(const Section* section, fs::FsOptions* options) {
  if (section == nullptr) return Status::OK();
  ROFS_ASSIGN_OR_RETURN(options->cache_bytes,
                        section->GetSizeOr("cache", options->cache_bytes));
  ROFS_ASSIGN_OR_RETURN(
      options->cache_page_bytes,
      section->GetSizeOr("cache_page", options->cache_page_bytes));
  ROFS_ASSIGN_OR_RETURN(
      options->cache_bypass_bytes,
      section->GetSizeOr("cache_bypass", options->cache_bypass_bytes));
  ROFS_ASSIGN_OR_RETURN(
      options->model_metadata_io,
      section->GetBoolOr("metadata", options->model_metadata_io));
  return Status::OK();
}

Status BuildCache(const Section* section, fs::FsOptions* options) {
  if (section == nullptr) return Status::OK();
  ROFS_ASSIGN_OR_RETURN(
      const std::string policy,
      section->GetStringOr("policy", options->cache_policy.Label()));
  StatusOr<fs::CachePolicySpec> spec = fs::ParseCachePolicySpec(policy);
  if (!spec.ok()) {
    return Status::InvalidArgument("[cache] " + spec.status().message());
  }
  options->cache_policy = *spec;
  ROFS_ASSIGN_OR_RETURN(
      const int64_t readahead,
      section->GetIntOr("readahead_pages",
                        static_cast<int64_t>(options->readahead_pages)));
  if (readahead < 0) {
    return Status::InvalidArgument("[cache] readahead_pages must be >= 0");
  }
  options->readahead_pages = static_cast<uint64_t>(readahead);
  ROFS_ASSIGN_OR_RETURN(
      const int64_t dirty_max,
      section->GetIntOr("writeback_dirty_max",
                        static_cast<int64_t>(options->writeback_dirty_max)));
  if (dirty_max < 0) {
    return Status::InvalidArgument(
        "[cache] writeback_dirty_max must be >= 0");
  }
  options->writeback_dirty_max = static_cast<uint64_t>(dirty_max);
  return Status::OK();
}

Status BuildTest(const Section* section, exp::ExperimentConfig* cfg,
                 TestSelection* tests) {
  if (section == nullptr) return Status::OK();
  ROFS_ASSIGN_OR_RETURN(const int64_t seed, section->GetIntOr("seed", 1));
  cfg->seed = static_cast<uint64_t>(seed);
  ROFS_ASSIGN_OR_RETURN(
      cfg->sample_interval_ms,
      section->GetDurationMsOr("sample_interval", cfg->sample_interval_ms));
  ROFS_ASSIGN_OR_RETURN(
      cfg->stable_tolerance_pp,
      section->GetDoubleOr("tolerance_pp", cfg->stable_tolerance_pp));
  ROFS_ASSIGN_OR_RETURN(cfg->warmup_ms,
                        section->GetDurationMsOr("warmup", cfg->warmup_ms));
  ROFS_ASSIGN_OR_RETURN(
      cfg->min_measure_ms,
      section->GetDurationMsOr("min_measure", cfg->min_measure_ms));
  ROFS_ASSIGN_OR_RETURN(
      cfg->max_measure_ms,
      section->GetDurationMsOr("max_measure", cfg->max_measure_ms));
  ROFS_ASSIGN_OR_RETURN(
      cfg->seq_max_measure_ms,
      section->GetDurationMsOr("seq_max_measure", cfg->seq_max_measure_ms));
  ROFS_ASSIGN_OR_RETURN(cfg->fill_lower,
                        section->GetDoubleOr("fill_lower", cfg->fill_lower));
  ROFS_ASSIGN_OR_RETURN(cfg->fill_upper,
                        section->GetDoubleOr("fill_upper", cfg->fill_upper));
  ROFS_ASSIGN_OR_RETURN(const std::string run,
                        section->GetStringOr("run", "all"));
  if (run != "all") {
    tests->allocation = run.find("alloc") != std::string::npos;
    tests->application = run.find("app") != std::string::npos;
    tests->sequential = run.find("seq") != std::string::npos;
    tests->aging = run.find("aging") != std::string::npos;
    if (!tests->allocation && !tests->application && !tests->sequential &&
        !tests->aging) {
      return Status::InvalidArgument("[test] run selects no tests: '" + run +
                                     "'");
    }
  }
  return Status::OK();
}

Status BuildAging(const Section* section, uint64_t test_seed,
                  workload::AgingOptions* aging) {
  aging->seed = test_seed;
  if (section == nullptr) return Status::OK();
  ROFS_ASSIGN_OR_RETURN(
      const int64_t seed,
      section->GetIntOr("seed", static_cast<int64_t>(aging->seed)));
  aging->seed = static_cast<uint64_t>(seed);
  ROFS_ASSIGN_OR_RETURN(
      aging->target_util,
      section->GetDoubleOr("target_util", aging->target_util));
  ROFS_ASSIGN_OR_RETURN(
      const int64_t ops,
      section->GetIntOr("ops_per_round",
                        static_cast<int64_t>(aging->ops_per_round)));
  aging->ops_per_round = static_cast<uint64_t>(ops);
  ROFS_ASSIGN_OR_RETURN(
      const int64_t rounds,
      section->GetIntOr("rounds", static_cast<int64_t>(aging->rounds)));
  aging->rounds = static_cast<int>(rounds);
  ROFS_ASSIGN_OR_RETURN(
      const int64_t probe,
      section->GetIntOr("probe_files",
                        static_cast<int64_t>(aging->probe_files)));
  aging->probe_files = static_cast<uint32_t>(probe);
  return aging->Validate();
}

Status BuildObs(const Section* section, obs::Options* obs) {
  if (section == nullptr) return Status::OK();
  ROFS_ASSIGN_OR_RETURN(obs->window_ms,
                        section->GetDurationMsOr("window_ms", obs->window_ms));
  if (obs->window_ms < 0.0) {
    return Status::InvalidArgument("[obs] window_ms must be non-negative");
  }
  return Status::OK();
}

}  // namespace

StatusOr<SimConfig> BuildSimConfig(const ConfigFile& file) {
  SimConfig sim;
  ROFS_ASSIGN_OR_RETURN(sim.disk, BuildDisk(file.Find("disk")));
  ROFS_ASSIGN_OR_RETURN(
      sim.allocator_factory,
      BuildPolicy(file.Find("policy"), sim.disk.disk_unit_bytes,
                  &sim.policy_label));
  ROFS_ASSIGN_OR_RETURN(sim.workload, BuildWorkload(file));
  ROFS_RETURN_IF_ERROR(
      BuildTest(file.Find("test"), &sim.experiment, &sim.tests));
  ROFS_RETURN_IF_ERROR(
      BuildAging(file.Find("aging"), sim.experiment.seed, &sim.aging));
  ROFS_RETURN_IF_ERROR(BuildFs(file.Find("fs"), &sim.experiment.fs_options));
  ROFS_RETURN_IF_ERROR(
      BuildCache(file.Find("cache"), &sim.experiment.fs_options));
  if (file.Find("sim") != nullptr) {
    // The sharded engine and the timer wheel are gone; fail loudly rather
    // than run a config that asked for them as if it had not.
    return Status::InvalidArgument(
        "[sim] section is no longer supported: its keys threads, "
        "user_timer and wheel_tick were removed with the sharded engine "
        "and the timer wheel; every run uses the single event heap");
  }
  ROFS_RETURN_IF_ERROR(BuildObs(file.Find("obs"), &sim.experiment.obs));
  return sim;
}

StatusOr<SimConfig> LoadSimConfig(const std::string& path) {
  ROFS_ASSIGN_OR_RETURN(const ConfigFile file, ParseConfigFile(path));
  return BuildSimConfig(file);
}

}  // namespace rofs::config
