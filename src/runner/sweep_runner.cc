#include "runner/sweep_runner.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <thread>
#include <utility>

#include "runner/thread_pool.h"
#include "util/random.h"

namespace rofs::runner {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// Shared between the pool task and the collector so a timed-out run can
/// be abandoned by the collector while the task finishes and fulfills the
/// promise into the void.
struct Slot {
  std::promise<RunResult> promise;
  std::atomic<bool> started{false};
  Clock::time_point started_at;  // Valid once `started` is true.
};

RunResult ExecuteSpec(const RunSpec& spec, size_t index, int max_attempts) {
  RunResult result;
  result.index = index;
  result.label = spec.label;
  RunContext ctx;
  ctx.seed = SplitSeed(spec.base_seed, spec.stream);
  ctx.index = index;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    ctx.attempt = attempt;
    result.attempts = attempt;
    const Clock::time_point t0 = Clock::now();
    result.wall_start_ms =
        std::chrono::duration<double, std::milli>(t0.time_since_epoch())
            .count();
    Status status;
    std::vector<std::string> cells;
    try {
      StatusOr<std::vector<std::string>> out = spec.run(ctx);
      if (out.ok()) {
        cells = std::move(out).value();
      } else {
        status = out.status();
      }
    } catch (const std::exception& e) {
      status = Status::Internal(std::string("run threw: ") + e.what());
    } catch (...) {
      status = Status::Internal("run threw a non-std::exception object");
    }
    result.wall_ms = MsSince(t0);
    result.status = status;
    if (status.ok()) {
      result.cells = std::move(cells);
      break;
    }
  }
  return result;
}

}  // namespace

std::vector<RunSpec> SweepRunner::ExpandReplicates(
    std::vector<RunSpec> specs, int replicates) {
  if (replicates <= 1) return specs;
  std::vector<RunSpec> expanded;
  expanded.reserve(specs.size() * static_cast<size_t>(replicates));
  for (RunSpec& spec : specs) {
    for (int r = 0; r < replicates; ++r) {
      RunSpec copy = spec;
      copy.stream = static_cast<uint64_t>(r);
      if (r > 0) copy.label += " [r" + std::to_string(r) + "]";
      expanded.push_back(std::move(copy));
    }
  }
  return expanded;
}

int SweepRunner::ResolveReplicates(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("ROFS_REPLICATES");
      env != nullptr && env[0] != '\0') {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 1;
}

int SweepRunner::ResolveJobs(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("ROFS_JOBS");
      env != nullptr && env[0] != '\0') {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

SweepRunner::SweepRunner(SweepOptions options)
    : options_(std::move(options)) {
  options_.jobs = ResolveJobs(options_.jobs);
  if (options_.max_attempts < 1) options_.max_attempts = 1;
}

std::vector<RunResult> SweepRunner::Run(const std::vector<RunSpec>& specs) {
  std::vector<std::shared_ptr<Slot>> slots;
  std::vector<std::future<RunResult>> futures;
  slots.reserve(specs.size());
  futures.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    slots.push_back(std::make_shared<Slot>());
    futures.push_back(slots.back()->promise.get_future());
  }

  std::vector<RunResult> results;
  results.reserve(specs.size());
  {
    ThreadPool pool(options_.jobs);
    const int max_attempts = options_.max_attempts;
    for (size_t i = 0; i < specs.size(); ++i) {
      const RunSpec* spec = &specs[i];
      std::shared_ptr<Slot> slot = slots[i];
      pool.Submit([spec, slot, i, max_attempts] {
        slot->started_at = Clock::now();
        slot->started.store(true, std::memory_order_release);
        slot->promise.set_value(ExecuteSpec(*spec, i, max_attempts));
      });
    }

    // Collect strictly in submission order so aggregation (and the
    // progress stream) never depend on scheduling.
    for (size_t i = 0; i < specs.size(); ++i) {
      RunResult result;
      if (options_.timeout_ms <= 0) {
        result = futures[i].get();
      } else {
        for (;;) {
          if (futures[i].wait_for(std::chrono::milliseconds(5)) ==
              std::future_status::ready) {
            result = futures[i].get();
            break;
          }
          // The budget covers execution, not time queued behind other
          // runs, so the clock starts when the task does.
          if (slots[i]->started.load(std::memory_order_acquire) &&
              MsSince(slots[i]->started_at) > options_.timeout_ms) {
            result.index = i;
            result.label = specs[i].label;
            result.attempts = 1;
            result.wall_ms = MsSince(slots[i]->started_at);
            result.status = Status::DeadlineExceeded(
                "run exceeded the per-run timeout; still executing, "
                "result discarded");
            break;
          }
        }
      }
      results.push_back(std::move(result));
      if (options_.progress) {
        options_.progress(results.back(), i + 1, specs.size());
      }
    }
  }  // ThreadPool joins here; abandoned (timed-out) runs finish first.
  return results;
}

}  // namespace rofs::runner
