// The workloads (see README.md for why each exists). Run* is a timed,
// untraced run that yields the end-to-end metrics; Trace* is part of the
// traced run that yields per-layer metrics. A traced run traces the named
// workload at full size (`full`) and gives every other layer a small
// fixed probe (the lease fleet and vacd are only ever probed), so every
// per-layer metric is measured in every traced run.
#pragma once

#include "harness.h"

namespace perfbench {

[[nodiscard]] Outcome RunCorpus(const Options& options);
[[nodiscard]] Outcome RunCampaign(const Options& options);

[[nodiscard]] Outcome TraceCorpus(const Options& options, bool full);
[[nodiscard]] Outcome TraceCampaign(const Options& options, bool full);
[[nodiscard]] Outcome TraceFleet(const Options& options);
[[nodiscard]] Outcome TraceVacd(const Options& options);

}  // namespace perfbench
