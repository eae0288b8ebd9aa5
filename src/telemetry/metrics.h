#ifndef BLOCKOPTR_TELEMETRY_METRICS_H_
#define BLOCKOPTR_TELEMETRY_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"

namespace blockoptr {

/// Monotonically increasing event count (e.g. `endorser.proposals_total`).
class Counter {
 public:
  void Increment(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// A point-in-time measurement (e.g. `endorser.queue_depth`). Tracks the
/// last set value plus the observed extremes so a snapshot still shows
/// transient peaks.
class Gauge {
 public:
  void Set(double v);
  void Add(double delta) { Set(value_ + delta); }

  double value() const { return value_; }
  double min() const { return seen_ ? min_ : 0.0; }
  double max() const { return seen_ ? max_ : 0.0; }
  /// Whether the gauge was ever set. Snapshots emit `min`/`max` as JSON
  /// null for never-set gauges, so "absent" and "genuinely zero" differ.
  bool seen() const { return seen_; }

 private:
  double value_ = 0;
  double min_ = 0;
  double max_ = 0;
  bool seen_ = false;
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds of the
/// first N buckets; one implicit overflow bucket catches everything above
/// the last bound (Prometheus-style cumulative-free layout).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double Mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  /// The exact smallest and largest observations (not bucket bounds); 0
  /// when empty.
  double min() const { return min_; }
  double max() const { return max_; }

  /// Bucket-interpolated quantile estimate, `q` in [0, 1]: finds the
  /// bucket holding the q-th observation and interpolates linearly within
  /// its [lower, upper] bound range cut to the observed [min, max] (the
  /// first bucket's lower bound is 0 for these non-negative latency/ratio
  /// histograms), so a constant histogram reports its value. Quantiles in
  /// the unbounded overflow bucket are the exact max. Returns 0 for an
  /// empty histogram.
  double Quantile(double q) const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<uint64_t>& bucket_counts() const { return counts_; }

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Named metric registry of one run, keyed by dotted name
/// (`orderer.block_fill_ratio`). Repeated lookups return the same
/// instance, so a hot path resolves a reference once and keeps it.
///
/// Thread-safety contract: a registry is *single-threaded by design* — it
/// holds no locks and no static mutable state. The parallel experiment
/// engine (driver/sweep.h) relies on exactly this: each concurrent run
/// instantiates its own registry (inside its own Telemetry), so distinct
/// instances may be used from distinct threads freely, while one instance
/// must never be shared across threads.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Creates the histogram with `bounds` on first use; later lookups
  /// ignore `bounds`.
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = DefaultLatencyBounds());

  /// Upper bounds suited to the simulator's sub-second stage latencies.
  static std::vector<double> DefaultLatencyBounds();
  /// Upper bounds for ratios in [0, 1] (e.g. block fill ratio).
  static std::vector<double> RatioBounds();

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Full snapshot: {"counters": {...}, "gauges": {...}, "histograms":
  /// {...}}, deterministic key order.
  JsonValue SnapshotJson() const;

 private:
  // std::map: node-based, so references handed out stay valid.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_TELEMETRY_METRICS_H_
