#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace mcbench {

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double PreciseMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Quantiles ExactQuantiles(std::vector<double> samples) {
  Quantiles q;
  q.samples = static_cast<int64_t>(samples.size());
  if (samples.empty()) return q;
  std::sort(samples.begin(), samples.end());
  const auto rank = [&](double p) {
    // Nearest rank: the smallest sample with at least p of the samples at
    // or below it.
    const size_t r = static_cast<size_t>(
        std::ceil(p * static_cast<double>(samples.size())));
    return samples[std::min(samples.size(), std::max<size_t>(r, 1)) - 1];
  };
  q.p50 = rank(0.50);
  q.p99 = rank(0.99);
  q.beyond_p99 = static_cast<int64_t>(
      samples.end() - std::upper_bound(samples.begin(), samples.end(), q.p99));
  return q;
}

WindowedResult WindowedQuantiles(const std::vector<double>& samples,
                                 const std::vector<uint64_t>& times_us) {
  const int64_t n = static_cast<int64_t>(samples.size());
  WindowedResult out;
  out.q.samples = n;
  out.q.beyond_p99 = n;
  for (const bool p99 : {false, true}) {
    const int64_t windows = std::max<int64_t>(
        1, n / (p99 ? kP99WindowSamples : kP50WindowSamples));
    std::vector<double> values, steal;
    for (int64_t w = 0; w < windows && n > 0; ++w) {
      const int64_t begin = w * n / windows;
      const int64_t end = (w + 1) * n / windows;
      const Quantiles q = ExactQuantiles(std::vector<double>(
          samples.begin() + begin, samples.begin() + end));
      values.push_back(p99 ? q.p99 : q.p50);
      steal.push_back(HostSteal().Rate(
          times_us[static_cast<size_t>(begin)],
          times_us[static_cast<size_t>(end - 1)]));
      if (p99) out.q.beyond_p99 = std::min(out.q.beyond_p99, q.beyond_p99);
    }
    if (p99) {
      out.q.p99 = QuietMedian(values, steal, nullptr);
      out.p99s = std::move(values);
    } else {
      out.q.p50 = QuietMedian(values, steal, &out.quiet_p50_windows);
      out.p50s = std::move(values);
    }
  }
  return out;
}

StealMonitor::StealMonitor() : thread_([this] {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    const uint64_t now = NowMicros();
    const double steal = HostStealSeconds();
    samples_.emplace_back(now, steal);
    cv_.wait_for(lock, std::chrono::milliseconds(50), [this] { return stop_; });
  }
}) {}

StealMonitor::~StealMonitor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

double StealMonitor::At(uint64_t t_us) const {
  if (samples_.empty()) return 0.0;
  const auto it = std::lower_bound(
      samples_.begin(), samples_.end(), t_us,
      [](const std::pair<uint64_t, double>& s, uint64_t t) {
        return s.first < t;
      });
  if (it == samples_.begin()) return it->second;
  if (it == samples_.end()) return samples_.back().second;
  const auto& [t1, v1] = *it;
  const auto& [t0, v0] = *(it - 1);
  if (t1 == t0) return v1;
  return v0 + (v1 - v0) * static_cast<double>(t_us - t0) /
                  static_cast<double>(t1 - t0);
}

double StealMonitor::Rate(uint64_t t0_us, uint64_t t1_us) const {
  if (t1_us <= t0_us) return 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  return (At(t1_us) - At(t0_us)) / (static_cast<double>(t1_us - t0_us) * 1e-6);
}

const StealMonitor& HostSteal() {
  static StealMonitor monitor;
  return monitor;
}

double QuietMedian(const std::vector<double>& values,
                   const std::vector<double>& steal_rates, int* quiet) {
  std::vector<double> calm;
  for (size_t i = 0; i < values.size(); ++i) {
    if (steal_rates[i] < kQuietStealRate) calm.push_back(values[i]);
  }
  if (quiet != nullptr) *quiet = static_cast<int>(calm.size());
  const bool enough = !calm.empty() && 3 * calm.size() >= values.size();
  return Median(enough ? calm : values);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

uint64_t FoldDigest(uint64_t h, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t BitDigest(const mcond::Tensor& t) {
  uint64_t h = FoldDigest(kFnvSeed, static_cast<uint64_t>(t.rows()));
  h = FoldDigest(h, static_cast<uint64_t>(t.cols()));
  const float* p = t.data();
  for (int64_t i = 0; i < t.size(); ++i) {
    uint32_t bits;
    std::memcpy(&bits, &p[i], sizeof(bits));
    h = (h ^ bits) * 1099511628211ull;
  }
  return h;
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

ProcUsage ProcUsage::Now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcUsage u;
  u.wall_s = NowSeconds();
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             1e-6 * static_cast<double>(ru.ru_utime.tv_usec);
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
  u.minor_faults = ru.ru_minflt;
  return u;
}

ProcUsage ProcUsage::operator-(const ProcUsage& o) const {
  ProcUsage d;
  d.wall_s = wall_s - o.wall_s;
  d.user_s = user_s - o.user_s;
  d.sys_s = sys_s - o.sys_s;
  d.minor_faults = minor_faults - o.minor_faults;
  return d;
}

ProcUsage& ProcUsage::operator+=(const ProcUsage& o) {
  wall_s += o.wall_s;
  user_s += o.user_s;
  sys_s += o.sys_s;
  minor_faults += o.minor_faults;
  return *this;
}

MetricsDelta::MetricsDelta() {
  const mcond::obs::MetricsSnapshot snap =
      mcond::obs::MetricsRegistry::Global().Snapshot();
  for (const auto& [name, value] : snap.counters) counters_[name] = value;
  for (const auto& [name, h] : snap.histograms) {
    hists_[name] = {h.count, h.sum};
  }
}

int64_t MetricsDelta::Counter(const std::string& name) const {
  const auto it = counters_.find(name);
  const int64_t before = it == counters_.end() ? 0 : it->second;
  return mcond::obs::GetCounter(name).Value() - before;
}

int64_t MetricsDelta::HistCount(const std::string& name) const {
  const auto it = hists_.find(name);
  const int64_t before = it == hists_.end() ? 0 : it->second.first;
  return mcond::obs::GetHistogram(name).Count() - before;
}

int64_t MetricsDelta::HistSum(const std::string& name) const {
  const auto it = hists_.find(name);
  const int64_t before = it == hists_.end() ? 0 : it->second.second;
  return mcond::obs::GetHistogram(name).Sum() - before;
}

double MeanWorkerBusyRatio() {
  const mcond::obs::MetricsSnapshot snap =
      mcond::obs::MetricsRegistry::Global().Snapshot();
  double sum = 0.0;
  int n = 0;
  for (const auto& [name, value] : snap.gauges) {
    if (name.rfind("mcond.server.worker", 0) == 0 &&
        name.size() > 11 &&
        name.compare(name.size() - 11, 11, "_busy_ratio") == 0) {
      sum += value;
      ++n;
    }
  }
  return n > 0 ? sum / n : 0.0;
}

std::map<std::string, SpanTotals> PhaseSpanTotals(
    const std::vector<std::string>& phases) {
  const std::set<std::string> wanted(phases.begin(), phases.end());
  std::vector<mcond::obs::TraceEvent> events;
  for (const mcond::obs::TraceEvent& e : mcond::obs::TraceSnapshot()) {
    if (e.kind == mcond::obs::TraceEvent::Kind::kSpan &&
        wanted.count(e.name) > 0) {
      events.push_back(e);
    }
  }
  // Outer spans first: by thread, then start, then depth.
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_us != b.start_us) return a.start_us < b.start_us;
    return a.depth < b.depth;
  });
  std::map<std::string, SpanTotals> totals;
  for (const std::string& name : phases) totals[name];
  struct Open {
    uint64_t end_us;
    SpanTotals* totals;
  };
  std::vector<Open> stack;
  uint32_t tid = 0;
  for (const mcond::obs::TraceEvent& e : events) {
    if (e.tid != tid) {
      stack.clear();
      tid = e.tid;
    }
    while (!stack.empty() && stack.back().end_us <= e.start_us) {
      stack.pop_back();
    }
    SpanTotals& t = totals[e.name];
    t.total_us += static_cast<double>(e.dur_us);
    t.self_us += static_cast<double>(e.dur_us);
    if (!stack.empty()) {
      stack.back().totals->self_us -= static_cast<double>(e.dur_us);
    }
    stack.push_back({e.start_us + e.dur_us, &t});
  }
  return totals;
}

void Result::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

double Result::Get(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.first;
}

bool Result::Has(const std::string& name) const {
  return metrics_.count(name) > 0;
}

void Result::Fail(const std::string& what) {
  failures_.push_back(what);
  std::fprintf(stdout, "# CHECK FAILED: %s\n", what.c_str());
  std::fflush(stdout);
}

void Result::Note(const char* fmt, ...) {
  std::fputs("# ", stdout);
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stdout, fmt, ap);
  va_end(ap);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

void Result::PrintJson(const std::vector<std::string>& only) const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : only) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) continue;
    double v = it->second.first;
    if (!std::isfinite(v)) v = 0.0;
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << v
        << ", \"unit\": \"" << it->second.second << "\"}";
    first = false;
  }
  out << "}}";
  std::fprintf(stdout, "%s\n", out.str().c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  return static_cast<double>(mcond::obs::PeakRssBytes()) / (1024.0 * 1024.0);
}

double HostStealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  // cpu user nice system idle iowait irq softirq steal
  double fields[8] = {};
  in >> cpu;
  for (double& f : fields) in >> f;
  if (!in || cpu != "cpu") return 0.0;
  return fields[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::string ReadStateFile(const std::string& dir, const std::string& name) {
  std::ifstream in(std::filesystem::path(dir) / name);
  if (!in) return "";
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteStateFile(const std::string& dir, const std::string& name,
                    const std::string& contents) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::filesystem::path path = std::filesystem::path(dir) / name;
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << contents;
  }
  std::filesystem::rename(tmp, path, ec);
}

bool CheckOrRecordDigest(const RunArgs& args, int rep, uint64_t digest) {
  // Keyed by the source id as well: a change that legitimately alters the
  // condense arithmetic must not be compared with digests of older code.
  const char* source = std::getenv("MCBENCH_GIT_SHA");
  char name[256];
  std::snprintf(name, sizeof(name), "digest-%s-%s-rep%d.txt",
                source != nullptr ? source : "unknown", args.workload.c_str(),
                rep);
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  const std::string before = ReadStateFile(args.state_dir, name);
  if (before.empty()) {
    WriteStateFile(args.state_dir, name, hex);
    return true;
  }
  return before == hex;
}

}  // namespace mcbench
