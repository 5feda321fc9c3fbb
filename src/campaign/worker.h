// Worker side of the process-level campaign isolation.
//
// The supervisor forks one disposable worker per sample attempt (the
// pokiSEC model: every detonation gets its own supervised, throwaway
// executor). The worker analyzes the sample and ships the SampleReport
// back over a pipe as a single JSON frame in the system's one framing
// (net/frame.h), then _exit()s without running parent-inherited
// atexit/stdio teardown. A worker that dies by SIGSEGV/abort/OOM-kill
// simply never completes its frame; the supervisor turns that into a
// failed SampleReport instead of a dead campaign.
#pragma once

#include <cstddef>

#include "vaccine/pipeline.h"
#include "vm/program.h"

namespace autovac::campaign {

// Derives the pipeline for retry `attempt` (0 = first try): each retry
// halves the phase-1 and impact cycle budgets — deterministic exponential
// backoff, so a sample that keeps flattening workers converges to a
// cheap, survivable run instead of burning the campaign's wall clock.
[[nodiscard]] vaccine::PipelineOptions BackoffOptions(
    const vaccine::PipelineOptions& options, size_t attempt);

// Worker body: analyze `sample` (with attempt-scaled budgets), write the
// report frame to `fd`, and _exit(0). Never returns. Runs in the forked
// child, so it must not touch parent-owned resources beyond the pipe.
[[noreturn]] void RunWorkerChild(const vaccine::VaccinePipeline& pipeline,
                                 const vm::Program& sample, size_t attempt,
                                 int fd);

}  // namespace autovac::campaign
