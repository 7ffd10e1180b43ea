// Shared plumbing of the benchmark driver: clocks, exact quantiles over raw
// samples, process counters, deltas of the program's own metrics registry,
// span self times from the trace ring, and the result line.
//
// Nothing here reads a histogram quantile: histograms contribute only their
// count and sum, which are exact.
#ifndef MCBENCH_HARNESS_H_
#define MCBENCH_HARNESS_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/tensor.h"

namespace mcbench {

/// Arguments of one invocation.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for run-to-run state: condense
  /// digests and untraced end-to-end values the traced run compares to.
  std::string state_dir;
  /// Directory (inside the checkout) for segment stores.
  std::string scratch_dir;
  /// Path of this executable, for the set-up child of condense-ooc.
  std::string self_path;
};

/// Microseconds on std::chrono::steady_clock; PreciseMicros keeps the
/// sub-microsecond part for timing calls that take only a few microseconds.
uint64_t NowMicros();
double PreciseMicros();
double NowSeconds();

/// Nearest-rank quantiles over raw samples. `beyond_p99` counts samples
/// strictly greater than the p99 value.
struct Quantiles {
  double p50 = 0.0;
  double p99 = 0.0;
  int64_t samples = 0;
  int64_t beyond_p99 = 0;
};
Quantiles ExactQuantiles(std::vector<double> samples);

/// p99 windows hold at least this many samples, so that nominally 15 lie
/// beyond each window's p99; p50 windows are shorter, so that a burst of
/// host contention spoils a smaller share of them.
constexpr int64_t kP99WindowSamples = 1500;
constexpr int64_t kP50WindowSamples = 300;

/// Splits samples (in the order they were taken, sample i at times_us[i])
/// into consecutive windows, takes the exact p50 (p99) of each window of at
/// least kP50WindowSamples (kP99WindowSamples), and reports the QuietMedian
/// over windows in `q`. `q.samples` is the total count; `q.beyond_p99` is
/// the smallest per-window count beyond that window's p99.
struct WindowedResult {
  Quantiles q;
  std::vector<double> p50s;  // per p50 window
  std::vector<double> p99s;  // per p99 window
  int quiet_p50_windows = 0;
};
WindowedResult WindowedQuantiles(const std::vector<double>& samples,
                                 const std::vector<uint64_t>& times_us);
double Median(std::vector<double> values);

/// FNV-1a over the raw bit patterns of a tensor: any single-bit difference
/// changes the digest.
uint64_t BitDigest(const mcond::Tensor& t);
uint64_t FoldDigest(uint64_t h, uint64_t v);
constexpr uint64_t kFnvSeed = 1469598103934665603ull;

/// Seed of every fixture: datasets, the artifacts served, and the condense
/// inputs. It is the same in every run, so quality and set-up repeat; the
/// run's --seed draws the traffic (request batches) only. At the short
/// condense schedules used here, MCond quality is strongly seed-sensitive
/// (README.md), which would otherwise swamp test_acc.
constexpr uint64_t kFixtureSeed = 1;

/// Deterministic 64-bit mix (splitmix64) for deriving per-request seeds.
uint64_t Mix(uint64_t x);

/// getrusage(RUSAGE_SELF) reading.
struct ProcUsage {
  double wall_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  int64_t minor_faults = 0;
  static ProcUsage Now();
  ProcUsage operator-(const ProcUsage& o) const;
  ProcUsage& operator+=(const ProcUsage& o);
};

/// Snapshot of the program's counters and histogram count/sum, so a phase
/// can be measured as a delta.
class MetricsDelta {
 public:
  MetricsDelta();
  /// Counter delta since construction (0 for a counter never created).
  int64_t Counter(const std::string& name) const;
  /// Histogram count / sum deltas since construction.
  int64_t HistCount(const std::string& name) const;
  int64_t HistSum(const std::string& name) const;

 private:
  std::map<std::string, int64_t> counters_;
  std::map<std::string, std::pair<int64_t, int64_t>> hists_;
};

/// Mean of every `mcond.server.worker<i>_busy_ratio` gauge (0 when none).
double MeanWorkerBusyRatio();

/// Totals of the trace ring's spans named in `phases`.
struct SpanTotals {
  double total_us = 0.0;
  /// Duration minus the time covered by nested spans that are themselves
  /// in `phases` (e.g. condense.round minus its condense.s_step and
  /// condense.mapping_update spans). Other nested spans (kernels, pool
  /// jobs) stay inside the self time.
  double self_us = 0.0;
};
std::map<std::string, SpanTotals> PhaseSpanTotals(
    const std::vector<std::string>& phases);

/// One benchmark result: named metrics with units, the counts the result
/// line carries, and the checks that failed.
class Result {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;
  bool Has(const std::string& name) const;
  /// A check that failed; the run reports correct=false and exits 1.
  void Fail(const std::string& what);
  bool correct() const { return failures_.empty(); }
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Prints the context/detail line to stdout ("# ..." lines).
  static void Note(const char* fmt, ...);
  /// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
  void PrintJson(const std::vector<std::string>& only) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> failures_;
};

/// Peak resident set of this process in MB (VmHWM).
double PeakRssMb();

/// Machine-wide steal time so far in CPU-seconds (the "steal" column of
/// /proc/stat), or 0 where it is unavailable.
double HostStealSeconds();

/// Samples HostStealSeconds every 50 ms on a background thread, so that a
/// measurement window can be tagged with how much CPU the hypervisor took
/// from this machine while it ran.
class StealMonitor {
 public:
  StealMonitor();
  ~StealMonitor();
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  /// Steal in CPU-seconds per second over [t0_us, t1_us] (NowMicros clock).
  double Rate(uint64_t t0_us, uint64_t t1_us) const;

 private:
  double At(uint64_t t_us) const;  // requires mu_

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::pair<uint64_t, double>> samples_;  // guarded by mu_
  bool stop_ = false;                                 // guarded by mu_
  std::thread thread_;  // last: started once the members above exist
};

/// The process-wide monitor; main() starts it before any workload runs.
const StealMonitor& HostSteal();

/// A measurement window is quiet when the hypervisor took less than this
/// from the machine while it ran (CPU-seconds per second).
constexpr double kQuietStealRate = 0.1;

/// Median of the values measured in quiet windows when at least a third of
/// them (and at least one) were quiet; otherwise the median of all values.
/// A burst of host contention then spoils the run only when it covers most
/// of it. `quiet` receives the number of quiet windows.
double QuietMedian(const std::vector<double>& values,
                   const std::vector<double>& steal_rates, int* quiet);

/// Values each measured over a window of time; Value() is their
/// QuietMedian.
class QuietSeries {
 public:
  void Add(double value, uint64_t t0_us, uint64_t t1_us) {
    values_.push_back(value);
    steal_.push_back(HostSteal().Rate(t0_us, t1_us));
  }
  double Value(int* quiet = nullptr) const {
    return QuietMedian(values_, steal_, quiet);
  }
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
  std::vector<double> steal_;
};

/// Small key/value files under RunArgs::state_dir.
std::string ReadStateFile(const std::string& dir, const std::string& name);
void WriteStateFile(const std::string& dir, const std::string& name,
                    const std::string& contents);

/// Records the condense digest of (workload, rep) or checks it against the
/// digest an earlier run of the same sources recorded, traced or not and
/// whatever its --seed (condense inputs are fixtures). Returns false on a
/// mismatch.
bool CheckOrRecordDigest(const RunArgs& args, int rep, uint64_t digest);

}  // namespace mcbench

#endif  // MCBENCH_HARNESS_H_
