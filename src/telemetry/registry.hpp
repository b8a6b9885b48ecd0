// MetricsRegistry: typed counters / gauges / histograms with a fixed
// registration order and a Prometheus-style text renderer.
//
// The registry is deliberately *not* a live instrumentation layer wired into
// the simulator hot path — that would cost cycles even when nobody asked for
// metrics and would put export state inside the determinism boundary.
// Instead it is built at flush time as a pure function of already-serialized
// simulation state (see hub.hpp): collect_metrics() walks the Gpu counters,
// the estimator taps, and the TelemetryHub buffers in one fixed order, so
// two runs that reach the same simulated state render byte-identical
// snapshots regardless of wall clock, host, or worker count.
//
// Rendering follows the Prometheus text exposition format: one `# HELP` /
// `# TYPE` pair per metric family (emitted at the family's first registered
// sample), then one sample line per (name, labels) pair, doubles printed
// with %.17g so round-tripping is exact.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "common/jsonl.hpp"
#include "common/types.hpp"

namespace gpusim {

class MetricsRegistry {
 public:
  enum class MetricKind : u8 { kCounter, kGauge, kHistogram };

  struct Metric {
    MetricKind kind = MetricKind::kGauge;
    std::string name;    ///< family name, e.g. "gpusim_app_instructions_total"
    std::string labels;  ///< rendered label set, e.g. "app=\"SD\"" ("" = none)
    std::string help;    ///< family help text (first registration wins)
    double value = 0.0;  ///< counter/gauge sample
    // Histogram state: `bounds` holds finite upper bounds; `bucket_counts`
    // has bounds.size() + 1 entries, the last one being the +Inf bucket.
    std::vector<double> bounds;
    std::vector<u64> bucket_counts;
    u64 observations = 0;
    double sum = 0.0;
  };

  /// Registers (or re-finds) a counter sample and returns its value slot.
  double& counter(const std::string& name, const std::string& labels,
                  const std::string& help) {
    return find_or_add(MetricKind::kCounter, name, labels, help).value;
  }

  /// Registers (or re-finds) a gauge sample and returns its value slot.
  double& gauge(const std::string& name, const std::string& labels,
                const std::string& help) {
    return find_or_add(MetricKind::kGauge, name, labels, help).value;
  }

  /// Registers a histogram sample with fixed finite bucket bounds.
  Metric& histogram(const std::string& name, const std::string& labels,
                    const std::string& help, std::vector<double> bounds) {
    Metric& m = find_or_add(MetricKind::kHistogram, name, labels, help);
    if (m.bucket_counts.empty()) {
      m.bounds = std::move(bounds);
      m.bucket_counts.assign(m.bounds.size() + 1, 0);
    }
    return m;
  }

  static void observe(Metric& m, double v) {
    ++m.observations;
    m.sum += v;
    for (std::size_t i = 0; i < m.bounds.size(); ++i) {
      if (v <= m.bounds[i]) {
        ++m.bucket_counts[i];
        return;
      }
    }
    ++m.bucket_counts[m.bounds.size()];  // +Inf bucket
  }

  const std::vector<Metric>& metrics() const { return metrics_; }

  /// Prometheus text exposition.  Families appear in first-registration
  /// order, and all samples of a family are grouped under one HELP/TYPE
  /// pair (the text format forbids repeating them), so collectors may
  /// register interleaved per-app/per-partition samples freely.
  void render(std::ostream& out) const {
    std::vector<std::size_t> order = family_grouped_order();
    std::string last_family;
    for (const std::size_t idx : order) {
      const Metric& m = metrics_[idx];
      if (m.name != last_family) {
        out << "# HELP " << m.name << " " << m.help << "\n";
        out << "# TYPE " << m.name << " " << type_name(m.kind) << "\n";
        last_family = m.name;
      }
      if (m.kind == MetricKind::kHistogram) {
        u64 cumulative = 0;
        for (std::size_t i = 0; i < m.bounds.size(); ++i) {
          cumulative += m.bucket_counts[i];
          out << m.name << "_bucket{" << m.labels << (m.labels.empty() ? "" : ",")
              << "le=\"" << fmt(m.bounds[i]) << "\"} " << cumulative << "\n";
        }
        cumulative += m.bucket_counts[m.bounds.size()];
        out << m.name << "_bucket{" << m.labels << (m.labels.empty() ? "" : ",")
            << "le=\"+Inf\"} " << cumulative << "\n";
        out << m.name << "_sum" << braced(m.labels) << " " << fmt(m.sum) << "\n";
        out << m.name << "_count" << braced(m.labels) << " " << m.observations
            << "\n";
      } else {
        out << m.name << braced(m.labels) << " " << fmt(m.value) << "\n";
      }
    }
  }

  /// %.17g rendering shared with the JSONL writers: shortest exact form.
  static std::string fmt(double v) { return fmt_double(v); }

 private:
  /// Indices reordered so every family's samples are contiguous, families
  /// in first-registration order, samples within a family in registration
  /// order.  O(n²) over a few hundred metrics at flush time — fine.
  std::vector<std::size_t> family_grouped_order() const {
    std::vector<std::size_t> order;
    order.reserve(metrics_.size());
    std::vector<bool> done(metrics_.size(), false);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (done[i]) continue;
      for (std::size_t j = i; j < metrics_.size(); ++j) {
        if (!done[j] && metrics_[j].name == metrics_[i].name) {
          done[j] = true;
          order.push_back(j);
        }
      }
    }
    return order;
  }

  static const char* type_name(MetricKind k) {
    switch (k) {
      case MetricKind::kCounter: return "counter";
      case MetricKind::kGauge: return "gauge";
      case MetricKind::kHistogram: return "histogram";
    }
    return "untyped";
  }

  static std::string braced(const std::string& labels) {
    return labels.empty() ? std::string() : "{" + labels + "}";
  }

  Metric& find_or_add(MetricKind kind, const std::string& name,
                      const std::string& labels, const std::string& help) {
    for (Metric& m : metrics_) {
      if (m.name == name && m.labels == labels) return m;
    }
    Metric m;
    m.kind = kind;
    m.name = name;
    m.labels = labels;
    m.help = help;
    metrics_.push_back(std::move(m));
    return metrics_.back();
  }

  std::vector<Metric> metrics_;
};

}  // namespace gpusim
