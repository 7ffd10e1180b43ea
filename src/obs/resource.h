#ifndef MCOND_OBS_RESOURCE_H_
#define MCOND_OBS_RESOURCE_H_

#include <cstdint>

namespace mcond {
namespace obs {

/// Current resident set size of this process in bytes (VmRSS), or 0 where
/// /proc is unavailable. Cheap enough to sample per benchmark phase, not
/// per kernel call.
int64_t CurrentRssBytes();

/// Peak resident set size since process start in bytes (VmHWM), or 0 where
/// /proc is unavailable. This is what the out-of-core acceptance gate
/// compares against the resident-CSR footprint: the kernel-maintained
/// high-water mark cannot miss a transient spike between samples.
int64_t PeakRssBytes();

/// Cumulative getrusage(RUSAGE_SELF) counters of this process.
struct ProcessUsage {
  int64_t minor_faults = 0;  // page faults served without I/O
  int64_t sys_us = 0;        // CPU time spent in the kernel
};

/// Reads getrusage(RUSAGE_SELF); all zero if the call fails. Subtract two
/// readings to attribute a call's faults and kernel time.
ProcessUsage CurrentProcessUsage();

/// Publishes both values to the metrics registry as
/// mcond.process.rss_bytes / mcond.process.peak_rss_bytes and returns the
/// peak.
int64_t RecordRssMetrics();

}  // namespace obs
}  // namespace mcond

#endif  // MCOND_OBS_RESOURCE_H_
