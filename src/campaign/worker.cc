#include "campaign/worker.h"

#include <unistd.h>

#include <algorithm>

#include "net/frame.h"
#include "vaccine/json.h"

namespace autovac::campaign {

vaccine::PipelineOptions BackoffOptions(
    const vaccine::PipelineOptions& options, size_t attempt) {
  vaccine::PipelineOptions derived = options;
  const uint64_t shift = std::min<size_t>(attempt, 63);
  derived.phase1_budget =
      std::max<uint64_t>(options.phase1_budget >> shift, 1);
  derived.impact.cycle_budget =
      std::max<uint64_t>(options.impact.cycle_budget >> shift, 1);
  return derived;
}

void RunWorkerChild(const vaccine::VaccinePipeline& pipeline,
                    const vm::Program& sample, size_t attempt, int fd) {
  vaccine::SampleReport report;
  if (attempt == 0) {
    report = vaccine::AnalyzeIsolated(pipeline, sample);
  } else {
    const vaccine::VaccinePipeline retry_pipeline(
        pipeline.exclusiveness_index(),
        BackoffOptions(pipeline.options(), attempt));
    report = vaccine::AnalyzeIsolated(retry_pipeline, sample);
  }
  // Failure to ship the frame is indistinguishable from a crash to the
  // supervisor, which is exactly the semantics we want: no report, no
  // completion.
  (void)net::WriteNetFrame(fd, vaccine::SampleReportToJson(report));
  // _exit, not exit: the child inherited the parent's stdio buffers and
  // atexit handlers; running them here would duplicate output and tear
  // down state the parent still owns.
  ::_exit(0);
}

}  // namespace autovac::campaign
