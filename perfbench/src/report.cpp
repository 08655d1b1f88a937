#include "report.hpp"

#include <sys/utsname.h>

#include <cstdio>
#include <ctime>
#include <fstream>
#include <thread>

#include "util/json.hpp"

#ifndef KM_PERFBENCH_BUILD_TYPE
#define KM_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr std::uint64_t kEchoedFailures = 20;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size()) {
      return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string host() {
  utsname u{};
  if (uname(&u) != 0) return "unknown";
  return std::string(u.sysname) + " " + u.release + " " + u.machine;
}

std::string date_utc() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

}  // namespace

std::string Counters::str() const {
  return "rounds=" + std::to_string(rounds) + " bits=" + std::to_string(bits) +
         " messages=" + std::to_string(messages) +
         " supersteps=" + std::to_string(supersteps);
}

Counters& Counters::operator+=(const Counters& o) {
  rounds += o.rounds;
  bits += o.bits;
  messages += o.messages;
  supersteps += o.supersteps;
  return *this;
}

void OpLedger::ok() {
  const std::lock_guard lock(mu_);
  ++attempted_;
}

void OpLedger::fail(const std::string& why) {
  const std::lock_guard lock(mu_);
  ++attempted_;
  if (++failed_ <= kEchoedFailures) {
    std::fprintf(stderr, "perfbench: op failed: %s\n", why.c_str());
  }
}

std::uint64_t OpLedger::attempted() const {
  const std::lock_guard lock(mu_);
  return attempted_;
}

std::uint64_t OpLedger::failed() const {
  const std::lock_guard lock(mu_);
  return failed_;
}

void Report::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the kernel reports kB
    }
  }
  return 0.0;
}

void print_report(const Args& args, const Report& report) {
  km::JsonWriter d(0);
  d.begin_object();
  d.key("perfbench").begin_object();
  d.field("workload", args.workload);
  d.field("trace", args.trace);
  // Field names follow scripts/run_benches.sh's BENCH_CONTEXT.json.
  d.key("context").begin_object();
  d.field("git_sha", args.git_sha);
  d.field("git_dirty", args.git_dirty);
  d.field("build_type", KM_PERFBENCH_BUILD_TYPE);
  d.field("host", host());
  d.field("nproc", std::uint64_t{std::thread::hardware_concurrency()});
  d.field("cpu", cpu_model());
  d.field("date_utc", date_utc());
  d.field("workers", std::uint64_t{report.workers});
  d.field("runners", std::uint64_t{report.runners});
  d.field("seed", args.seed);
  d.field("seconds", args.seconds);
  d.end_object();
  d.key("latency_tail").begin_object();
  d.field("percentile", report.latency_tail.percentile);
  d.field("samples", std::uint64_t{report.latency_tail.samples});
  d.field("beyond", std::uint64_t{report.latency_tail.beyond});
  d.end_object();
  d.key("cost").begin_object();
  d.field("cells", report.cost.cells);
  d.field("rounds", report.cost.sum.rounds);
  d.field("bits", report.cost.sum.bits);
  d.field("messages", report.cost.sum.messages);
  d.field("supersteps", report.cost.sum.supersteps);
  d.end_object();
  if (!report.fatal.empty()) d.field("fatal", report.fatal);
  d.end_object();
  d.end_object();
  std::printf("%s\n", d.str().c_str());

  km::JsonWriter r(0);
  r.begin_object();
  r.field("correct", report.correct());
  r.field("attempted", report.attempted);
  r.field("failed", report.failed);
  r.key("metrics").begin_object();
  for (const Metric& m : report.metrics) {
    r.key(m.name).begin_object();
    r.field("value", m.value);
    r.field("unit", m.unit);
    r.end_object();
  }
  r.end_object();
  r.end_object();
  std::printf("%s\n", r.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
