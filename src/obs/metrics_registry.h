#ifndef RADB_OBS_METRICS_REGISTRY_H_
#define RADB_OBS_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace radb::obs {

/// Monotonic counter ("exec.rows_shuffled"). The pointer returned by
/// MetricsRegistry::counter() is stable for the registry's lifetime,
/// so hot paths can hoist the lookup.
class Counter {
 public:
  void Add(uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value ("exec.workers").
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Distribution summary with power-of-two buckets. Bucket i counts
/// observations in (2^(i-1+kMinExponent), 2^(i+kMinExponent)]; bucket
/// 0 takes everything <= 2^kMinExponent, the top bucket everything
/// above 2^(kBuckets-2+kMinExponent). The bounds reach far below 1 so
/// sub-second latencies get their own buckets. Cheap, fixed memory,
/// good enough to see operator-time and shuffle-size shapes.
class Histogram {
 public:
  static constexpr int kMinExponent = -32;
  static constexpr size_t kBuckets = 96;  // top bound 2^63

  void Observe(double v);

  uint64_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }
  double sum() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sum_;
  }
  double min() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0 ? 0.0 : min_;
  }
  double max() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0 ? 0.0 : max_;
  }
  double mean() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  /// Approximate quantile (q in [0,1]): nearest-rank bucket walk with
  /// linear interpolation inside the winning power-of-two bucket,
  /// clamped to the observed min/max so small samples stay exact at
  /// the extremes.
  double Percentile(double q) const;
  /// Non-empty buckets as (upper_bound, count) pairs.
  std::vector<std::pair<double, uint64_t>> NonEmptyBuckets() const;

 private:
  friend class MetricsRegistry;
  mutable std::mutex mu_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  uint64_t buckets_[kBuckets] = {};
};

/// One instrument's point-in-time reading, in a uniform shape the
/// radb_metrics system table and the TelemetryExporter both consume.
/// Counters fill only `value` (== count); gauges only `value`;
/// histograms fill everything (`value` is the mean).
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  double value = 0.0;
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};
const char* MetricKindName(MetricSample::Kind kind);

/// Named metric store. Names follow "<subsystem>.<metric>" snake_case
/// ("la.matmul_flops", "optimizer.plans_considered"); see DESIGN.md §7
/// for the convention. Instrument lookup is mutex-guarded; the handles
/// themselves update lock-free (counters/gauges) or under a per-
/// histogram mutex.
class MetricsRegistry {
 public:
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Convenience one-shot updates (lookup + mutate).
  void Add(const std::string& name, uint64_t delta) { counter(name)->Add(delta); }
  void Set(const std::string& name, double v) { gauge(name)->Set(v); }
  void Observe(const std::string& name, double v) { histogram(name)->Observe(v); }

  /// Point-in-time JSON snapshot:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,
  ///  min,max,mean,buckets:[{"le":..,"count":..}]}}}
  std::string ToJson() const;

  /// Point-in-time structured snapshot of every instrument, sorted by
  /// (name, kind). The relational twin of ToJson(): radb_metrics rows
  /// and the Prometheus exporter are both rendered from this.
  std::vector<MetricSample> Snapshot() const;

  /// Adds every instrument into `dst`: counters add, gauges
  /// overwrite, histograms merge bucket by bucket. Folds a query-local
  /// registry into its Database's registry when the query ends.
  void MergeInto(MetricsRegistry* dst) const;

  /// Drops every instrument (used between bench figures).
  void Clear();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace radb::obs

#endif  // RADB_OBS_METRICS_REGISTRY_H_
