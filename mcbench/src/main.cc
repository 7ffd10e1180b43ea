// mcbench: the repository's benchmark driver. One invocation runs one
// workload and prints, as its last stdout line, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Metric names, units and the workloads are documented in
// mcbench/README.md; BENCHMARK.json lists the same names.
//
//   mcbench --workload serve-small --seed 3 --seconds 10 --trace 0
//           --state <dir> --scratch <dir>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "core/segment_prefetcher.h"
#include "core/simd.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace mcbench {
namespace {

const std::vector<std::string> kEndToEnd = {
    "setup_s",  "condense_s", "rps_max",    "lat_p50_us",
    "ok_ratio", "test_acc",   "peak_rss_mb"};

struct LayerMetric {
  const char* name;
  const char* unit;
};

const std::vector<LayerMetric> kPerLayer = {
    // Measured in every run but not bounded (README.md, "Why lat_p99_us
    // has no bound"); the untraced run prints it on a "#" line.
    {"lat_p99_us", "us"},
    {"net.wire_us_p50", "us"},
    {"net.wire_us_p99", "us"},
    {"net.rtt_us_p50", "us"},
    {"wire.encode_us", "us"},
    {"wire.parse_us", "us"},
    {"net.bytes_per_req", "B"},
    {"server.queue_wait_us_p50", "us"},
    {"server.queue_wait_us_p99", "us"},
    {"server.coalesce_ratio", "ratio"},
    {"server.service_us_p50", "us"},
    {"server.service_us_p99", "us"},
    {"server.busy_ratio", "ratio"},
    {"session.serve_us_p50", "us"},
    {"session.convert_us_mean", "us"},
    {"session.compose_us_mean", "us"},
    {"session.forward_us_mean", "us"},
    {"session.fallbacks", "count"},
    {"setup.registry_s", "s"},
    {"session.base_mb", "MB"},
    {"session.workspace_mb", "MB"},
    {"loadgen.late_us_p99", "us"},
    {"loadgen.sent", "count"},
    {"loadgen.ok", "count"},
    {"loadgen.fail_ratio", "ratio"},
    {"loadgen.lat_samples", "count"},
    {"loadgen.lat_beyond_p99", "count"},
    {"condense.s_step_ms", "ms"},
    {"condense.m_step_ms", "ms"},
    {"condense.mapping_update_ms", "ms"},
    {"condense.round_ms", "ms"},
    {"condense.prologue_ms", "ms"},
    {"kernel.matmul.calls", "count"},
    {"kernel.matmul.ms", "ms"},
    {"kernel.matmul_ta.calls", "count"},
    {"kernel.matmul_ta.ms", "ms"},
    {"kernel.matmul_tb.calls", "count"},
    {"kernel.matmul_tb.ms", "ms"},
    {"kernel.spmm.calls", "count"},
    {"kernel.spmm.ms", "ms"},
    {"kernel.spmm_t.calls", "count"},
    {"kernel.spmm_t.ms", "ms"},
    {"pool.jobs", "count"},
    {"pool.tasks", "count"},
    {"proc.cpu_util", "ratio"},
    {"proc.sys_s", "s"},
    {"proc.minor_faults", "count"},
    {"source.propagate_ms", "ms"},
    {"source.propagate_calls", "count"},
    {"source.sample_edges_ms", "ms"},
    {"source.sample_edges_calls", "count"},
    {"source.support_tail_ms", "ms"},
    {"source.support_tail_calls", "count"},
    {"shard.pins", "count"},
    {"shard.mmaps", "count"},
    {"shard.evictions", "count"},
    {"shard.io_mb", "MB"},
    {"shard.prefetch.hit_ratio", "ratio"},
    {"shard.prefetch.stall_ms", "ms"},
    {"setup.generate_s", "s"},
    {"setup.condense_s", "s"},
    {"setup.train_s", "s"},
    {"trace.overhead_pct", "%"},
    {"trace.dropped", "count"},
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload serve-small|serve-large|condense|"
               "condense-ooc --seed N --seconds S --trace 0|1 "
               "--state DIR --scratch DIR\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace mcbench

int main(int argc, char** argv) {
  using namespace mcbench;
  RunArgs args;
  args.self_path = argv[0];
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value);
    } else if (key == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else if (key == "--state") {
      args.state_dir = value;
    } else if (key == "--scratch") {
      args.scratch_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (args.workload.empty() || args.seconds <= 0.0 ||
      args.state_dir.empty() || args.scratch_dir.empty()) {
    return Usage(argv[0]);
  }

  if (args.workload == "condense-ooc-generate") return GenerateOocStore(args);

  // Pool width (README.md, "Pool width"): every pool job waits for its
  // slowest chunk, which turns host steal into bimodal condense times. A
  // 4-wide pool condenses reddit-sim no faster than a 2-wide one; the
  // pubmed-sim and out-of-core condenses are no faster at 2 than at 1.
  mcond::ThreadPool::Global().SetNumThreads(
      args.workload == "serve-large" || args.workload == "condense" ? 2 : 1);

  // Context stamp: everything a number depends on besides the code.
  const char* sha = std::getenv("MCBENCH_GIT_SHA");
  Result::Note("context workload=%s seed=%llu seconds=%g trace=%d nproc=%ld "
               "pool_threads=%d simd=%s prefetch=%lld git=%s",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.seconds,
               args.trace ? 1 : 0, ::sysconf(_SC_NPROCESSORS_ONLN),
               mcond::ThreadPool::Global().NumThreads(),
               mcond::simd::TierName(mcond::simd::ActiveTier()),
               static_cast<long long>(mcond::PrefetchSegments()),
               sha != nullptr && *sha != '\0' ? sha : "unknown");

  HostSteal();  // start sampling before the first measurement
  const double steal0 = HostStealSeconds();
  Result result;
  if (args.workload == "serve-small") {
    RunServeSmall(args, result);
  } else if (args.workload == "serve-large") {
    RunServeLarge(args, result);
  } else if (args.workload == "condense") {
    RunCondense(args, result);
  } else if (args.workload == "condense-ooc") {
    RunCondenseOoc(args, result);
  } else {
    return Usage(argv[0]);
  }
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  // CPU time the hypervisor gave to other guests while this run was
  // measured: the first thing to look at when a run is an outlier.
  Result::Note("host steal during the run: %.2f cpu-s",
               HostStealSeconds() - steal0);
  for (const std::string& name : kEndToEnd) {
    if (!result.Has(name)) result.Fail("workload did not report " + name);
  }

  if (!args.trace) {
    Result::Note("lat_p99_us %.17g us (not bounded; README.md)",
                 result.Get("lat_p99_us"));
    // The traced run of the same seed reports its overhead against these.
    std::string saved;
    for (const std::string& name : kEndToEnd) {
      char line[160];
      std::snprintf(line, sizeof(line), "%s %.17g\n", name.c_str(),
                    result.Get(name));
      saved += line;
    }
    WriteStateFile(args.state_dir,
                   "e2e-" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".txt",
                   saved);
    WriteStateFile(args.state_dir, "e2e-" + args.workload + "-last.txt",
                   saved);
    result.PrintJson(kEndToEnd);
  } else {
    result.Add("trace.dropped",
               static_cast<double>(
                   mcond::obs::GetCounter("mcond.trace.dropped").Value()),
               "count");
    if (result.Get("trace.dropped") > 0) {
      result.Fail("trace ring dropped events");
    }
    // Overhead of tracing on the workload's primary latency, against the
    // untraced run of the same seed (or the latest untraced run).
    const std::string primary =
        args.workload.rfind("serve", 0) == 0 ? "lat_p50_us" : "condense_s";
    std::string saved = ReadStateFile(
        args.state_dir, "e2e-" + args.workload + "-seed" +
                            std::to_string(args.seed) + ".txt");
    if (saved.empty()) {
      saved = ReadStateFile(args.state_dir,
                            "e2e-" + args.workload + "-last.txt");
    }
    const size_t at = saved.find(primary + " ");
    if (at != std::string::npos) {
      const double untraced = std::atof(saved.c_str() + at + primary.size());
      if (untraced > 0.0) {
        result.Add("trace.overhead_pct",
                   100.0 * (result.Get(primary) - untraced) / untraced, "%");
      }
    }
    std::vector<std::string> names;
    for (const LayerMetric& m : kPerLayer) {
      if (!result.Has(m.name)) result.Add(m.name, 0.0, m.unit);
      names.push_back(m.name);
    }
    result.PrintJson(names);
  }
  return result.correct() ? 0 : 1;
}
