#include "obs/resource.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstring>

#include "obs/metrics.h"

namespace mcond {
namespace obs {

namespace {

/// Reads one "Vm...: <kB> kB" line from /proc/self/status.
int64_t StatusFieldBytes(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  const size_t field_len = std::strlen(field);
  char line[256];
  int64_t bytes = 0;
  while (std::fgets(line, sizeof(line), f)) {
    if (std::strncmp(line, field, field_len) == 0 && line[field_len] == ':') {
      long long kb = 0;
      if (std::sscanf(line + field_len + 1, "%lld", &kb) == 1) {
        bytes = static_cast<int64_t>(kb) * 1024;
      }
      break;
    }
  }
  std::fclose(f);
  return bytes;
}

}  // namespace

int64_t CurrentRssBytes() { return StatusFieldBytes("VmRSS"); }

int64_t PeakRssBytes() { return StatusFieldBytes("VmHWM"); }

ProcessUsage CurrentProcessUsage() {
  ProcessUsage usage;
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return usage;
  usage.minor_faults = static_cast<int64_t>(ru.ru_minflt);
  usage.sys_us = static_cast<int64_t>(ru.ru_stime.tv_sec) * 1000000 +
                 static_cast<int64_t>(ru.ru_stime.tv_usec);
  return usage;
}

int64_t RecordRssMetrics() {
  const int64_t rss = CurrentRssBytes();
  const int64_t peak = PeakRssBytes();
  GetGauge("mcond.process.rss_bytes").Set(static_cast<double>(rss));
  GetGauge("mcond.process.peak_rss_bytes").Set(static_cast<double>(peak));
  return peak;
}

}  // namespace obs
}  // namespace mcond
