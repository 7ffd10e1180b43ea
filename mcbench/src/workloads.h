#ifndef MCBENCH_WORKLOADS_H_
#define MCBENCH_WORKLOADS_H_

#include "harness.h"

namespace mcbench {

/// Each workload fills `result` with every end-to-end metric and, when
/// `args.trace` is set, the per-layer metrics it can observe.
void RunServeSmall(const RunArgs& args, Result& result);
void RunServeLarge(const RunArgs& args, Result& result);
void RunCondense(const RunArgs& args, Result& result);
void RunCondenseOoc(const RunArgs& args, Result& result);

/// Child process of condense-ooc's set-up: generates the segment stores,
/// features and labels into args.scratch_dir. Returns the exit code.
int GenerateOocStore(const RunArgs& args);

}  // namespace mcbench

#endif  // MCBENCH_WORKLOADS_H_
