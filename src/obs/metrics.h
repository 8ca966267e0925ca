#ifndef ROFS_OBS_METRICS_H_
#define ROFS_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace rofs::obs {

/// Monotonic counter. Record path is a single add; the registry owns the
/// storage, instrumented code holds the raw pointer.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_ += n; }
  void Set(uint64_t v) { value_ = v; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// Last-write-wins double value, with accumulate/max helpers for
/// end-of-run folds.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double d) { value_ += d; }
  void Max(double v) {
    if (v > value_) value_ = v;
  }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram: 96 log2-scaled buckets spanning [2^-32, 2^63),
/// sized at compile time so Record() is O(1) — one exponent extraction,
/// one array increment, no allocation ever. Exact count/sum/min/max are
/// kept alongside the buckets; percentiles interpolate within a bucket,
/// so snapshots are deterministic functions of the recorded multiset.
class Histogram {
 public:
  static constexpr int kNumBuckets = 96;

  void Record(double value);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double Mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  /// Approximate percentile (0 < p <= 100) from the log-scaled buckets,
  /// clamped to the exact [min, max].
  double Percentile(double p) const;

 private:
  /// Bucket index: 0 holds everything <= 2^-32 (including zero and
  /// negatives, which the simulator never records); bucket i holds
  /// (2^(i-33), 2^(i-32)].
  static int BucketFor(double value);
  static double BucketUpperBound(int bucket);

  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::array<uint64_t, kNumBuckets> buckets_{};
};

/// The metric registry of one simulation run: named counters, gauges and
/// histograms. Registration (setup time) allocates and returns a stable
/// pointer; record paths (hot) never touch the registry again. Snapshot()
/// emits name -> value pairs sorted by name — registration order never
/// leaks into the output, so snapshots are byte-deterministic for any
/// thread count or wiring order.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registration is idempotent: a second registration of the same name
  /// and kind returns the same object. Re-registering a name as a
  /// different kind dies (an instrumentation bug, not a runtime
  /// condition).
  Counter* AddCounter(const std::string& name);
  Gauge* AddGauge(const std::string& name);
  Histogram* AddHistogram(const std::string& name);

  size_t size() const { return entries_.size(); }

  /// Appends the registry contents to `out` sorted by metric name.
  /// Counters and gauges emit one entry under their own name; a histogram
  /// `h` emits `h.count`, `h.sum`, `h.min`, `h.max`, `h.p50`, `h.p95`,
  /// and `h.p99`.
  void Snapshot(std::vector<std::pair<std::string, double>>* out) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrDie(const std::string& name, Kind kind);

  // Ordered by name, which is what makes Snapshot() deterministic.
  std::map<std::string, Entry> entries_;
};

}  // namespace rofs::obs

#endif  // ROFS_OBS_METRICS_H_
