// Regenerates Figure 3: statistics on malware's resource-sensitive
// behaviours — share of tainted occurrences by resource type and basic
// operation (create / read-open / write / delete). Phase I alone decides
// these counts, so each sample gets only the pipeline's phase-1 run,
// whose API trace reports summarize but do not keep.
#include <cstdio>

#include "bench/common.h"
#include "sandbox/sandbox.h"
#include "support/table.h"

using namespace autovac;

int main() {
  const std::vector<malware::CorpusSample> corpus =
      bench::BuildCorpus(bench::CorpusSizeFromEnv());
  // Phase-1 options and machine do not depend on the exclusiveness index.
  const vaccine::VaccinePipeline pipeline(nullptr);
  const sandbox::RunOptions phase1_options = pipeline.Phase1RunOptions();

  // counts[resource][operation-bucket]; kOpen and kRead merge into the
  // figure's "Read/Open" bucket.
  enum Bucket { kCreate = 0, kReadOpen, kWrite, kDelete, kNumBuckets };
  size_t counts[os::kNumResourceTypes][kNumBuckets] = {};
  size_t tainted_total = 0;

  for (const malware::CorpusSample& sample : corpus) {
    os::HostEnvironment env = pipeline.BaselineMachine();
    const sandbox::RunResult phase1 =
        sandbox::RunProgram(sample.program, env, phase1_options);
    for (const trace::ApiCallRecord& call : phase1.api_trace.calls) {
      if (!call.is_resource_api || !call.taint_reached_predicate) continue;
      Bucket bucket;
      switch (call.operation) {
        case os::Operation::kCreate: bucket = kCreate; break;
        case os::Operation::kOpen:
        case os::Operation::kRead: bucket = kReadOpen; break;
        case os::Operation::kWrite: bucket = kWrite; break;
        case os::Operation::kDelete: bucket = kDelete; break;
        default: continue;
      }
      counts[static_cast<size_t>(call.resource_type)][bucket]++;
      ++tainted_total;
    }
  }

  std::printf("== Figure 3: malware's resource-sensitive behaviours ==\n");
  std::printf("(%% of %zu tainted resource-API occurrences, corpus size "
              "%zu)\n\n", tainted_total, corpus.size());
  TextTable table({"Resource", "Create", "Read/Open", "Write", "Delete",
                   "All"});
  // Figure order: File, Mutex, Registry, Library, Process, Service, Windows.
  const os::ResourceType order[] = {
      os::ResourceType::kFile,    os::ResourceType::kMutex,
      os::ResourceType::kRegistry, os::ResourceType::kLibrary,
      os::ResourceType::kProcess, os::ResourceType::kService,
      os::ResourceType::kWindow,
  };
  for (os::ResourceType type : order) {
    const size_t* row = counts[static_cast<size_t>(type)];
    const size_t row_total = row[0] + row[1] + row[2] + row[3];
    table.AddRow({std::string(os::ResourceTypeName(type)),
                  bench::Pct(static_cast<double>(row[kCreate]),
                             static_cast<double>(tainted_total)),
                  bench::Pct(static_cast<double>(row[kReadOpen]),
                             static_cast<double>(tainted_total)),
                  bench::Pct(static_cast<double>(row[kWrite]),
                             static_cast<double>(tainted_total)),
                  bench::Pct(static_cast<double>(row[kDelete]),
                             static_cast<double>(tainted_total)),
                  bench::Pct(static_cast<double>(row_total),
                             static_cast<double>(tainted_total))});
  }
  std::fputs(table.Render().c_str(), stdout);
  std::printf(
      "\nPaper (per-resource 'All'): File 37.4%%, Registry 20.1%%, Windows "
      "13.1%%,\n  Process 8.0%%, Mutex 7.1%%, Library 6.6%%, Service 3.4%%.\n");
  return 0;
}
