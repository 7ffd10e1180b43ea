#include "obs/metrics.h"

#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

namespace mcond {
namespace obs {

namespace {

/// Emits a double as a JSON value; non-finite values become strings so the
/// document stays parseable (losses can go NaN when a run diverges).
void AppendJsonDouble(std::ostringstream& out, double v) {
  if (std::isnan(v)) {
    out << "\"nan\"";
  } else if (std::isinf(v)) {
    out << (v > 0 ? "\"inf\"" : "\"-inf\"");
  } else {
    out.precision(std::numeric_limits<double>::max_digits10);
    out << v;
  }
}

template <typename Map, typename Fn>
void AppendJsonSection(std::ostringstream& out, const char* key,
                       const Map& map, bool* first_section, Fn&& emit_value) {
  if (!*first_section) out << ",";
  *first_section = false;
  out << "\"" << key << "\":{";
  bool first = true;
  for (const auto& [name, instrument] : map) {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":";
    emit_value(*instrument);
  }
  out << "}";
}

}  // namespace

void Histogram::Record(uint64_t value) {
  buckets_[static_cast<size_t>(BucketIndex(value))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(static_cast<int64_t>(value), std::memory_order_relaxed);
  uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
}

int Histogram::BucketIndex(uint64_t value) {
  if (value < 2) return 0;
  const int idx = std::bit_width(value) - 1;  // floor(log2(value)).
  return idx < kNumBuckets ? idx : kNumBuckets - 1;
}

uint64_t Histogram::Min() const {
  const uint64_t m = min_.load(std::memory_order_relaxed);
  return m == ~uint64_t{0} ? 0 : m;
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.count = Count();
  snap.sum = Sum();
  snap.min = Min();
  snap.max = Max();
  for (int i = 0; i < kNumBuckets; ++i) {
    snap.buckets[static_cast<size_t>(i)] = BucketCount(i);
  }
  return snap;
}

uint64_t HistogramApproxQuantile(const HistogramSnapshot& h, double q) {
  if (h.count <= 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  int64_t target = static_cast<int64_t>(q * static_cast<double>(h.count));
  if (static_cast<double>(target) < q * static_cast<double>(h.count)) {
    ++target;
  }
  if (target < 1) target = 1;
  int64_t seen = 0;
  uint64_t estimate = h.max;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    const int64_t in_bucket = h.buckets[static_cast<size_t>(i)];
    if (in_bucket <= 0) continue;
    if (seen + in_bucket >= target) {
      const double lower =
          static_cast<double>(Histogram::BucketLowerBound(i));
      const double upper =
          static_cast<double>(Histogram::BucketUpperBound(i));
      const double frac = static_cast<double>(target - seen) /
                          static_cast<double>(in_bucket);
      estimate = static_cast<uint64_t>(lower + frac * (upper - lower));
      break;
    }
    seen += in_bucket;
  }
  return std::min(std::max(estimate, h.min), h.max);
}

HistogramSnapshot HistogramSnapshotDelta(const HistogramSnapshot& cur,
                                         const HistogramSnapshot& prev) {
  HistogramSnapshot delta;
  delta.count = cur.count - prev.count;
  delta.sum = cur.sum - prev.sum;
  // Interval extrema are unknowable from cumulative state; the cumulative
  // bounds are the tightest safe clamp for interval quantiles.
  delta.min = cur.min;
  delta.max = cur.max;
  for (size_t i = 0; i < delta.buckets.size(); ++i) {
    delta.buckets[i] = cur.buckets[i] - prev.buckets[i];
  }
  return delta;
}

void Series::Append(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  ++total_;
  if (values_.size() < kMaxSamples) values_.push_back(v);
}

std::vector<double> Series::Values() const {
  std::lock_guard<std::mutex> lock(mu_);
  return values_;
}

int64_t Series::Count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // Leaked.
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

Series& MetricsRegistry::GetSeries(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = series_[name];
  if (!slot) slot = std::make_unique<Series>();
  return *slot;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{";
  bool first_section = true;
  AppendJsonSection(out, "counters", counters_, &first_section,
                    [&out](const Counter& c) { out << c.Value(); });
  AppendJsonSection(out, "gauges", gauges_, &first_section,
                    [&out](const Gauge& g) {
                      AppendJsonDouble(out, g.Value());
                    });
  AppendJsonSection(
      out, "histograms", histograms_, &first_section,
      [&out](const Histogram& h) {
        out << "{\"count\":" << h.Count() << ",\"sum\":" << h.Sum()
            << ",\"min\":" << h.Min() << ",\"max\":" << h.Max()
            << ",\"buckets\":[";
        bool first = true;
        for (int i = 0; i < Histogram::kNumBuckets; ++i) {
          const int64_t n = h.BucketCount(i);
          if (n == 0) continue;
          if (!first) out << ",";
          first = false;
          out << "{\"le\":" << Histogram::BucketUpperBound(i)
              << ",\"count\":" << n << "}";
        }
        out << "]}";
      });
  AppendJsonSection(out, "series", series_, &first_section,
                    [&out](const Series& s) {
                      out << "{\"count\":" << s.Count() << ",\"values\":[";
                      bool first = true;
                      for (double v : s.Values()) {
                        if (!first) out << ",";
                        first = false;
                        AppendJsonDouble(out, v);
                      }
                      out << "]}";
                    });
  out << "}";
  return out.str();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->Value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->Value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace_back(name, h->Snapshot());
  }
  snap.series_counts.reserve(series_.size());
  for (const auto& [name, s] : series_) {
    snap.series_counts.emplace_back(name, s->Count());
  }
  return snap;
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; the mcond dot convention
/// maps onto it by replacing every other character with '_'.
std::string PrometheusName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

void AppendPrometheusDouble(std::ostringstream& out, double v) {
  if (std::isnan(v)) {
    out << "NaN";
  } else if (std::isinf(v)) {
    out << (v > 0 ? "+Inf" : "-Inf");
  } else {
    out.precision(std::numeric_limits<double>::max_digits10);
    out << v;
  }
}

/// Dynamic per-tenant metrics (`mcond.net.tenant.<name>.<metric>`) are
/// label-like: the tenant is a dimension of one family, not a family of its
/// own. Mapping each to a distinct escaped name would (a) let two tenant
/// names that differ only in escaped characters collide into one sample
/// name, and (b) emit a duplicate `# TYPE` block per tenant, which strict
/// exposition parsers reject. Instead the tenant segment becomes a
/// `tenant="<name>"` label on a shared `mcond_net_tenant_<metric>` family.
/// Returns false for every other name (ordinary escaping applies).
bool SplitTenantMetric(const std::string& name, std::string* tenant,
                       std::string* family) {
  static constexpr char kPrefix[] = "mcond.net.tenant.";
  static constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (name.rfind(kPrefix, 0) != 0) return false;
  const size_t dot = name.find('.', kPrefixLen);
  if (dot == std::string::npos || dot == kPrefixLen ||
      dot + 1 >= name.size()) {
    return false;  // no <metric> after the tenant segment
  }
  *tenant = name.substr(kPrefixLen, dot - kPrefixLen);
  *family = PrometheusName("mcond.net.tenant." + name.substr(dot + 1));
  return true;
}

/// Label values allow any UTF-8 but must escape backslash, double quote and
/// newline (Prometheus text exposition format).
std::string PrometheusLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Labeled samples collected under one family so the exposition emits a
/// single `# TYPE` line per family regardless of tenant count.
template <typename V>
using LabeledFamilies =
    std::map<std::string, std::vector<std::pair<std::string, V>>>;

}  // namespace

std::string MetricsRegistry::ToPrometheus() const {
  const MetricsSnapshot snap = Snapshot();
  std::ostringstream out;
  LabeledFamilies<int64_t> tenant_counters;
  LabeledFamilies<double> tenant_gauges;
  LabeledFamilies<const HistogramSnapshot*> tenant_histograms;
  std::string tenant, family;
  for (const auto& [name, value] : snap.counters) {
    if (SplitTenantMetric(name, &tenant, &family)) {
      tenant_counters[family].emplace_back(tenant, value);
      continue;
    }
    const std::string pname = PrometheusName(name);
    out << "# TYPE " << pname << " counter\n"
        << pname << " " << value << "\n";
  }
  for (const auto& [fam, samples] : tenant_counters) {
    out << "# TYPE " << fam << " counter\n";
    for (const auto& [t, value] : samples) {
      out << fam << "{tenant=\"" << PrometheusLabelValue(t) << "\"} "
          << value << "\n";
    }
  }
  for (const auto& [name, value] : snap.gauges) {
    if (SplitTenantMetric(name, &tenant, &family)) {
      tenant_gauges[family].emplace_back(tenant, value);
      continue;
    }
    const std::string pname = PrometheusName(name);
    out << "# TYPE " << pname << " gauge\n" << pname << " ";
    AppendPrometheusDouble(out, value);
    out << "\n";
  }
  for (const auto& [fam, samples] : tenant_gauges) {
    out << "# TYPE " << fam << " gauge\n";
    for (const auto& [t, value] : samples) {
      out << fam << "{tenant=\"" << PrometheusLabelValue(t) << "\"} ";
      AppendPrometheusDouble(out, value);
      out << "\n";
    }
  }
  const auto emit_histogram = [&out](const std::string& pname,
                                     const std::string& label,
                                     const HistogramSnapshot& h) {
    // A tenant label composes with the le bucket label; scalar histograms
    // pass an empty label string and emit the classic unlabeled shape.
    const std::string sep = label.empty() ? "{" : "{" + label + ",";
    int64_t cumulative = 0;
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      const int64_t n = h.buckets[static_cast<size_t>(i)];
      if (n == 0) continue;  // sparse: only boundaries that add samples
      cumulative += n;
      out << pname << "_bucket" << sep << "le=\""
          << Histogram::BucketUpperBound(i) << "\"} " << cumulative << "\n";
    }
    out << pname << "_bucket" << sep << "le=\"+Inf\"} " << h.count << "\n"
        << pname << "_sum" << (label.empty() ? "" : "{" + label + "}") << " "
        << h.sum << "\n"
        << pname << "_count" << (label.empty() ? "" : "{" + label + "}")
        << " " << h.count << "\n";
  };
  for (const auto& [name, h] : snap.histograms) {
    if (SplitTenantMetric(name, &tenant, &family)) {
      tenant_histograms[family].emplace_back(tenant, &h);
      continue;
    }
    const std::string pname = PrometheusName(name);
    out << "# TYPE " << pname << " histogram\n";
    emit_histogram(pname, "", h);
  }
  for (const auto& [fam, samples] : tenant_histograms) {
    out << "# TYPE " << fam << " histogram\n";
    for (const auto& [t, h] : samples) {
      emit_histogram(fam, "tenant=\"" + PrometheusLabelValue(t) + "\"", *h);
    }
  }
  for (const auto& [name, count] : snap.series_counts) {
    // Bounded series have no exposition shape; export the append count so
    // scrapers can still rate() the activity.
    const std::string pname = PrometheusName(name) + "_total";
    out << "# TYPE " << pname << " counter\n"
        << pname << " " << count << "\n";
  }
  return out.str();
}

Counter& GetCounter(const std::string& name) {
  return MetricsRegistry::Global().GetCounter(name);
}
Gauge& GetGauge(const std::string& name) {
  return MetricsRegistry::Global().GetGauge(name);
}
Histogram& GetHistogram(const std::string& name) {
  return MetricsRegistry::Global().GetHistogram(name);
}
Series& GetSeries(const std::string& name) {
  return MetricsRegistry::Global().GetSeries(name);
}
std::string MetricsToJson() { return MetricsRegistry::Global().ToJson(); }
std::string MetricsToPrometheus() {
  return MetricsRegistry::Global().ToPrometheus();
}

}  // namespace obs
}  // namespace mcond
