#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace rofs::obs {

int Histogram::BucketFor(double value) {
  if (!(value > 0.0) || std::isinf(value) || std::isnan(value)) return 0;
  // ilogb(x) = floor(log2(x)); values in (2^(e), 2^(e+1)] land in the
  // bucket bounded above by 2^(e+1). Exact powers of two sit at their
  // bucket's upper bound.
  int e = std::ilogb(value);
  if (std::ldexp(1.0, e) == value) --e;  // 2^e belongs to (2^(e-1), 2^e].
  const int bucket = e + 33;
  if (bucket < 0) return 0;
  if (bucket >= kNumBuckets) return kNumBuckets - 1;
  return bucket;
}

double Histogram::BucketUpperBound(int bucket) {
  return std::ldexp(1.0, bucket - 32);
}

void Histogram::Record(double value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }
  ++count_;
  sum_ += value;
  ++buckets_[static_cast<size_t>(BucketFor(value))];
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(count_);
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets_[static_cast<size_t>(i)] == 0) continue;
    const uint64_t next = seen + buckets_[static_cast<size_t>(i)];
    if (static_cast<double>(next) >= rank) {
      // Linear interpolation inside the bucket.
      const double lower = i == 0 ? 0.0 : BucketUpperBound(i - 1);
      const double upper = BucketUpperBound(i);
      const double within =
          (rank - static_cast<double>(seen)) /
          static_cast<double>(buckets_[static_cast<size_t>(i)]);
      double v = lower + within * (upper - lower);
      if (v < min_) v = min_;
      if (v > max_) v = max_;
      return v;
    }
    seen = next;
  }
  return max_;
}

Registry::Entry* Registry::FindOrDie(const std::string& name, Kind kind) {
  auto it = entries_.find(name);
  if (it == entries_.end()) return nullptr;
  if (it->second.kind != kind) {
    std::fprintf(stderr,
                 "FATAL: obs metric '%s' registered twice with different "
                 "kinds\n",
                 name.c_str());
    std::abort();
  }
  return &it->second;
}

Counter* Registry::AddCounter(const std::string& name) {
  if (Entry* e = FindOrDie(name, Kind::kCounter)) return e->counter.get();
  Entry entry;
  entry.kind = Kind::kCounter;
  entry.counter = std::make_unique<Counter>();
  Counter* ptr = entry.counter.get();
  entries_.emplace(name, std::move(entry));
  return ptr;
}

Gauge* Registry::AddGauge(const std::string& name) {
  if (Entry* e = FindOrDie(name, Kind::kGauge)) return e->gauge.get();
  Entry entry;
  entry.kind = Kind::kGauge;
  entry.gauge = std::make_unique<Gauge>();
  Gauge* ptr = entry.gauge.get();
  entries_.emplace(name, std::move(entry));
  return ptr;
}

Histogram* Registry::AddHistogram(const std::string& name) {
  if (Entry* e = FindOrDie(name, Kind::kHistogram)) {
    return e->histogram.get();
  }
  Entry entry;
  entry.kind = Kind::kHistogram;
  entry.histogram = std::make_unique<Histogram>();
  Histogram* ptr = entry.histogram.get();
  entries_.emplace(name, std::move(entry));
  return ptr;
}

void Registry::Snapshot(
    std::vector<std::pair<std::string, double>>* out) const {
  // entries_ iterates in name order; histogram sub-metrics share the
  // parent's prefix and are appended in a fixed suffix order, then the
  // whole batch is sorted so suffixes interleave deterministically with
  // sibling names.
  const size_t first = out->size();
  for (const auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        out->emplace_back(name,
                          static_cast<double>(entry.counter->value()));
        break;
      case Kind::kGauge:
        out->emplace_back(name, entry.gauge->value());
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry.histogram;
        out->emplace_back(name + ".count",
                          static_cast<double>(h.count()));
        out->emplace_back(name + ".max", h.max());
        out->emplace_back(name + ".min", h.min());
        out->emplace_back(name + ".p50", h.Percentile(50));
        out->emplace_back(name + ".p95", h.Percentile(95));
        out->emplace_back(name + ".p99", h.Percentile(99));
        out->emplace_back(name + ".sum", h.sum());
        break;
      }
    }
  }
  std::sort(out->begin() + static_cast<ptrdiff_t>(first), out->end());
}

}  // namespace rofs::obs
