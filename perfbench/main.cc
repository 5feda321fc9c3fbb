// perfbench: the end-to-end benchmark program. See README.md.
//
//   perfbench --workload corpus|campaign --seed N --seconds S --trace 0|1
//             --state-dir DIR [--small] [--inject report|vacd]
//
// Prints one JSON object as the last line of stdout: end-to-end metrics
// with --trace 0, per-layer metrics with --trace 1. Any failed output
// check makes it exit 1 without printing a result.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "support/logging.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload corpus|campaign "
               "--seed N --seconds S --trace 0|1 --state-dir DIR "
               "[--small] [--inject report|vacd]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* options, std::string* state) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      options->small = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--state-dir") {
      *state = value;
    } else if (flag == "--inject") {
      if (value != "report" && value != "vacd") return false;
      options->inject = value;
    } else {
      return false;
    }
  }
  return !state->empty() &&
         (options->workload == "corpus" || options->workload == "campaign");
}

// Concatenates the per-child span files into one Chrome trace file.
void MergeSpans(const Options& options) {
  std::string events;
  for (const char* part : {"corpus", "campaign", "fleet", "vacd"}) {
    std::string text;
    if (!ReadFile(options.workdir + "/spans-" + part + ".json", &text)) {
      continue;
    }
    const size_t open = text.find('[');
    const size_t close = text.rfind(']');
    if (open == std::string::npos || close <= open + 1) continue;
    if (!events.empty()) events += ",";
    events += text.substr(open + 1, close - open - 1);
  }
  (void)WriteFile(options.trace_out,
                  "{\"traceEvents\":[" + events +
                      "],\"displayTimeUnit\":\"ms\"}\n");
}

int Main(int argc, char** argv) {
  Options options;
  std::string state;
  if (!ParseArgs(argc, argv, &options, &state)) return Usage();
  autovac::SetLogLevel(autovac::LogLevel::kWarning);
  options.nproc = std::max(1u, std::thread::hardware_concurrency());
  options.workdir = state + "/run/" + std::to_string(::getpid());
  options.refdir = state + "/refs";
  MakeDirs(options.workdir);
  MakeDirs(options.refdir);
  MakeDirs(state + "/traces");
  options.trace_out = state + "/traces/" + options.workload + "-seed" +
                      std::to_string(options.seed) + ".json";

  const double ref_start = HostRefMs();
  Outcome outcome;
  if (!options.trace) {
    outcome = options.workload == "corpus" ? RunCorpus(options)
                                           : RunCampaign(options);
  } else {
    // The named workload at full size, every other layer as a probe.
    outcome.Merge(TraceCorpus(options, options.workload == "corpus"));
    outcome.Merge(TraceCampaign(options, options.workload == "campaign"));
    outcome.Merge(TraceFleet(options));
    outcome.Merge(TraceVacd(options));
  }
  const double ref_end = HostRefMs();
  std::fprintf(stderr, "perfbench: host.ref_ms start %.3f end %.3f\n",
               ref_start, ref_end);
  if (options.trace) {
    outcome.Set("host.ref_ms", (ref_start + ref_end) / 2, "ms");
    MergeSpans(options);
    std::fprintf(stderr, "perfbench: spans written to %s\n",
                 options.trace_out.c_str());
  }
  RemoveTree(options.workdir);

  for (const auto& [name, metric] : outcome.metrics) {
    if (!std::isfinite(metric.value)) {
      outcome.Fail(1, "metric " + name + " is not finite");
    }
  }
  if (outcome.failed > 0 || !outcome.errors.empty() || outcome.attempted == 0) {
    for (const std::string& error : outcome.errors) {
      std::fprintf(stderr, "perfbench: FAILED: %s\n", error.c_str());
    }
    std::fprintf(stderr, "perfbench: %llu of %llu operations failed\n",
                 static_cast<unsigned long long>(outcome.failed),
                 static_cast<unsigned long long>(outcome.attempted));
    return 1;
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(outcome.attempted) +
                     ", \"failed\": 0, \"metrics\": {";
  bool first = true;
  char buf[256];
  for (const auto& [name, metric] : outcome.metrics) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), metric.value,
                  metric.unit.c_str());
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
