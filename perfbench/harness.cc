#include "harness.h"

#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             Clock::now().time_since_epoch())
      .count();
}

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

void Outcome::Fail(uint64_t count, const std::string& why) {
  failed += count;
  errors.push_back(why);
}

void Outcome::Merge(const Outcome& other) {
  for (const auto& [name, metric] : other.metrics) metrics[name] = metric;
  attempted += other.attempted;
  failed += other.failed;
  errors.insert(errors.end(), other.errors.begin(), other.errors.end());
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      rank < 1 ? 0 : std::min(values.size() - 1, static_cast<size_t>(rank) - 1);
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

namespace {

Usage FromRusage(const rusage& usage) {
  Usage out;
  out.user_ms = static_cast<double>(usage.ru_utime.tv_sec) * 1e3 +
                static_cast<double>(usage.ru_utime.tv_usec) / 1e3;
  out.sys_ms = static_cast<double>(usage.ru_stime.tv_sec) * 1e3 +
               static_cast<double>(usage.ru_stime.tv_usec) / 1e3;
  out.maxrss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  out.minflt = static_cast<double>(usage.ru_minflt);
  return out;
}

}  // namespace

Usage SelfUsage() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return FromRusage(usage);
}

Usage ChildrenUsage() {
  rusage usage{};
  ::getrusage(RUSAGE_CHILDREN, &usage);
  return FromRusage(usage);
}

double HostRefMs() {
  const auto start = Clock::now();
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  std::vector<char> a(1 << 20, 1);
  std::vector<char> b(1 << 20);
  for (int i = 0; i < 300; ++i) {
    std::memcpy(b.data(), a.data(), a.size());
    a[static_cast<size_t>(i) * 997 % a.size()] ^= b[x % b.size()];
  }
  volatile uint64_t sink = x + static_cast<uint64_t>(a[12345]);
  (void)sink;
  return MsSince(start);
}

CpuRotation::CpuRotation(size_t every, size_t offset)
    : every_(std::max<size_t>(every, 1)), offset_(offset) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.size() < 2) return;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  for (const int cpu : cpus_) CPU_SET(cpu, &allowed);
  (void)::sched_setaffinity(0, sizeof(allowed), &allowed);
}

void CpuRotation::Step(size_t step) {
  if (cpus_.size() < 2 || step % every_ != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[(step / every_ + offset_) % cpus_.size()], &one);
  (void)::sched_setaffinity(0, sizeof(one), &one);
}

double Record::Get(const std::string& key) const {
  const auto it = nums_.find(key);
  return it == nums_.end() ? 0 : it->second;
}

const std::vector<double>& Record::List(const std::string& key) const {
  static const std::vector<double> kEmpty;
  const auto it = lists_.find(key);
  return it == lists_.end() ? kEmpty : it->second;
}

std::string Record::Encode() const {
  std::string out;
  char buf[64];
  for (const auto& [key, value] : nums_) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += "n " + key + " " + buf + "\n";
  }
  for (const auto& [key, values] : lists_) {
    out += "v " + key;
    for (const double value : values) {
      std::snprintf(buf, sizeof(buf), " %.17g", value);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

Record Record::Decode(const std::string& text) {
  Record record;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string kind;
    std::string key;
    fields >> kind >> key;
    std::string token;
    if (kind == "n" && fields >> token) {
      record.nums_[key] = std::strtod(token.c_str(), nullptr);
    } else if (kind == "v") {
      std::vector<double>& values = record.lists_[key];
      while (fields >> token) {
        values.push_back(std::strtod(token.c_str(), nullptr));
      }
    }
  }
  return record;
}

pid_t ForkProcess(const std::function<int()>& body) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    // A child never outlives the process that forked it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    int code = 3;
    try {
      code = body();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: child failed: %s\n", e.what());
    }
    std::fflush(nullptr);
    ::_exit(code);
  }
  return pid;
}

bool Reap(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return false;
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::optional<Record> RunInChild(const std::function<Record()>& body,
                                 const std::function<void()>& poll) {
  int fds[2];
  if (::pipe(fds) != 0) return std::nullopt;
  const pid_t pid = ForkProcess([&] {
    ::close(fds[0]);
    const std::string payload = body().Encode();
    size_t done = 0;
    while (done < payload.size()) {
      const ssize_t n = ::write(fds[1], payload.data() + done,
                                payload.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return 4;
      done += static_cast<size_t>(n);
    }
    ::close(fds[1]);
    return 0;
  });
  ::close(fds[1]);
  if (pid < 0) {
    ::close(fds[0]);
    return std::nullopt;
  }
  std::string payload;
  char buf[1 << 16];
  for (;;) {
    pollfd pfd{fds[0], POLLIN, 0};
    const int ready = ::poll(&pfd, 1, poll ? 2 : -1);
    if (poll) poll();
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    payload.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  if (!Reap(pid)) return std::nullopt;
  return Record::Decode(payload);
}

namespace {

uint32_t ThreadNumber() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t number = next.fetch_add(1);
  return number;
}

thread_local std::vector<size_t> open_spans;

}  // namespace

size_t SpanLog::Open(const std::string& name, uint64_t id) {
  Span span;
  span.name = name;
  span.id = id;
  span.tid = ThreadNumber();
  span.parent = open_spans.empty() ? -1
                                   : static_cast<int64_t>(open_spans.back());
  span.start_ms = NowMs();
  std::lock_guard lock(mutex_);
  spans_.push_back(std::move(span));
  open_spans.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

double SpanLog::Close(size_t index) {
  const double now = NowMs();
  std::lock_guard lock(mutex_);
  Span& span = spans_[index];
  span.end_ms = now;
  if (!open_spans.empty() && open_spans.back() == index) open_spans.pop_back();
  return span.end_ms - span.start_ms;
}

std::map<std::string, double> SpanLog::SelfMs() const {
  std::lock_guard lock(mutex_);
  std::vector<double> child_ms(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0 && span.end_ms >= 0) {
      child_ms[static_cast<size_t>(span.parent)] += span.end_ms - span.start_ms;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].end_ms < 0) continue;
    self[spans_[i].name] +=
        spans_[i].end_ms - spans_[i].start_ms - child_ms[i];
  }
  return self;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const double origin = spans_.empty() ? 0 : spans_.front().start_ms;
  char buf[512];
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ms < 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%lld,\"id\":%llu}}",
                  i == 0 ? "" : ",", span.name.c_str(), span.tid,
                  (span.start_ms - origin) * 1e3,
                  (span.end_ms - span.start_ms) * 1e3, i,
                  static_cast<long long>(span.parent),
                  static_cast<unsigned long long>(span.id));
    out << buf << "\n";
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

SpanLog& Spans() {
  static SpanLog* log = new SpanLog();
  return *log;
}

void SaveSpans(const Options& options, const std::string& part) {
  (void)Spans().WriteChromeTrace(options.workdir + "/spans-" + part + ".json");
  for (const auto& [name, ms] : Spans().SelfMs()) {
    std::fprintf(stderr, "perfbench: %s self ms %-36s %12.3f\n", part.c_str(),
                 name.c_str(), ms);
  }
}

std::string ReferencePath(const Options& options, size_t total) {
  // The build identity: a rebuilt binary gets a fresh reference.
  struct stat st {};
  ::stat("/proc/self/exe", &st);
  const long long mtime_ns = st.st_mtim.tv_sec * 1000000000ll +
                            st.st_mtim.tv_nsec;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "/ref-%llu-%zu-%llx-%llx.digests",
                static_cast<unsigned long long>(options.seed), total,
                static_cast<unsigned long long>(st.st_size),
                static_cast<unsigned long long>(mtime_ns));
  return options.refdir + buf;
}

bool WriteDigests(const std::string& path, const ReportDigests& digests) {
  std::string text = digests.campaign + "\n";
  for (const std::string& line : digests.samples) text += line + "\n";
  return WriteFile(path, text);
}

std::optional<ReportDigests> ReadDigests(const std::string& path) {
  std::string text;
  if (!ReadFile(path, &text)) return std::nullopt;
  ReportDigests digests;
  std::istringstream lines(text);
  if (!std::getline(lines, digests.campaign)) return std::nullopt;
  std::string line;
  while (std::getline(lines, line)) digests.samples.push_back(line);
  return digests;
}

bool StoreReference(const std::string& path, const ReportDigests& reference) {
  const std::string tmp = path + ".tmp" + std::to_string(::getpid());
  return WriteDigests(tmp, reference) &&
         std::rename(tmp.c_str(), path.c_str()) == 0;
}

void CheckAgainstReference(const ReportDigests& produced,
                           const ReportDigests& want, const std::string& what,
                           Outcome& outcome) {
  if (produced.samples.size() != want.samples.size()) {
    outcome.Fail(want.samples.size(),
                 what + ": " + std::to_string(produced.samples.size()) +
                     " sample reports, reference has " +
                     std::to_string(want.samples.size()));
    return;
  }
  uint64_t differing = 0;
  for (size_t i = 0; i < want.samples.size(); ++i) {
    if (produced.samples[i] != want.samples[i]) ++differing;
  }
  if (differing > 0) {
    outcome.Fail(differing, what + ": " + std::to_string(differing) +
                                " sample reports differ from the in-process "
                                "reference");
  }
  if (produced.campaign != want.campaign) {
    outcome.Fail(differing == 0 ? 1 : 0,
                 what + ": campaign report is not byte-identical to the "
                        "in-process reference");
  }
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

bool WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
  return static_cast<bool>(out);
}

void MakeDirs(const std::string& path) {
  std::error_code error;
  std::filesystem::create_directories(path, error);
}

void RemoveTree(const std::string& path) {
  std::error_code error;
  std::filesystem::remove_all(path, error);
}

}  // namespace perfbench
