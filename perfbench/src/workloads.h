// The benchmark's three workloads. Each returns the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run) of one process.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

Result RunDashboardDram(const Args& args);
Result RunAdhocL2(const Args& args);
Result RunIngestLive(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
