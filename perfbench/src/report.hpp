// What one benchmark run reports, and how it is printed.
//
// stdout carries two JSON lines: a detail line (provenance stamp, tail
// percentile and sample count, the paper's cost of the cells run) and,
// last, the result line {"correct", "attempted", "failed", "metrics"}.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "sim/metrics.hpp"
#include "stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

inline Clock::time_point seconds_after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  bool git_dirty = false;
  std::string work_dir = ".";  ///< where the serve socket lives
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The paper's counters of one run; they repeat exactly for one cell.
struct Counters {
  std::uint64_t rounds = 0;
  std::uint64_t bits = 0;
  std::uint64_t messages = 0;
  std::uint64_t supersteps = 0;

  static Counters of(const km::Metrics& m) {
    return {m.rounds, m.bits, m.messages, m.supersteps};
  }
  std::string str() const;
  Counters& operator+=(const Counters& o);
  friend bool operator==(const Counters&, const Counters&) = default;
};

/// Paper cost summed once per distinct scenario cell.
struct Cost {
  std::uint64_t cells = 0;
  Counters sum;
};

/// Thread-safe op accounting: every op attempted, every op failed with
/// its reason (the first few reasons are echoed to stderr).
class OpLedger {
 public:
  void ok();
  void fail(const std::string& why);
  std::uint64_t attempted() const;
  std::uint64_t failed() const;

 private:
  mutable std::mutex mu_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Report {
  std::size_t workers = 0;  ///< engine workers per run
  std::size_t runners = 0;  ///< concurrent engine runs (km_serve runners)
  std::vector<Metric> metrics;
  Tail latency_tail;
  Cost cost;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// A failure outside the ops (set-up, a counter mismatch between the
  /// layer run and run_workload): the run is incorrect whatever the ops.
  std::string fatal;

  void add(std::string name, double value, std::string unit);
  bool correct() const { return failed == 0 && fatal.empty(); }
};

/// Peak resident set (VmHWM) of process `pid` in MiB; 0 if unreadable.
double peak_rss_mb(pid_t pid);

/// Prints the detail line and the result line to stdout.
void print_report(const Args& args, const Report& report);

}  // namespace perfbench
