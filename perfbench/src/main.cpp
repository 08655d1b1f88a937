// km_perfbench — runs one benchmark workload and prints its metrics.
//
//   km_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                [--git-sha SHA] [--git-dirty 0|1] [--work-dir DIR]
//
// Workloads: pagerank-k64, connectivity-k1024, serve-mix (see
// perfbench/README.md).  --trace 0 prints the end-to-end metrics,
// --trace 1 the per-layer ones.  --work-dir holds the serve-mix socket;
// keep it a short relative path (AF_UNIX paths are ~100 bytes).
//
// Exit status: 0 when every op passed its checks, 1 when any failed (the
// result line is still printed, with "correct": false), 2 on usage
// errors or a failure before any result exists.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "report.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Args;

int usage(const std::string& error) {
  std::fprintf(stderr,
               "km_perfbench: %s\n"
               "usage: km_perfbench --workload "
               "pagerank-k64|connectivity-k1024|serve-mix --seed N "
               "--seconds S --trace 0|1 [--git-sha SHA] [--git-dirty 0|1] "
               "[--work-dir DIR]\n",
               error.c_str());
  return 2;
}

bool parse_flag(std::string_view value, bool& out) {
  if (value != "0" && value != "1") return false;
  out = value == "1";
  return true;
}

bool parse_args(int argc, char** argv, Args& args, std::string& error) {
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      error = "missing value for " + std::string(flag);
      return false;
    }
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        if (!(args.seconds > 0)) throw std::invalid_argument("not positive");
      } else if (flag == "--trace") {
        if (!parse_flag(value, args.trace)) throw std::invalid_argument("");
      } else if (flag == "--git-sha") {
        args.git_sha = value;
      } else if (flag == "--git-dirty") {
        if (!parse_flag(value, args.git_dirty)) throw std::invalid_argument("");
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else {
        error = "unknown flag " + std::string(flag);
        return false;
      }
    } catch (const std::exception&) {
      error = "bad value for " + std::string(flag) + ": " + value;
      return false;
    }
  }
  if (!have_workload) {
    error = "--workload is required";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parse_args(argc, argv, args, error)) return usage(error);
  const bool batch = perfbench::is_batch_workload(args.workload);
  if (!batch && args.workload != "serve-mix") {
    return usage("unknown workload " + args.workload);
  }
  try {
    const perfbench::Report report =
        batch ? perfbench::run_batch(args) : perfbench::run_serve_mix(args);
    perfbench::print_report(args, report);
    if (!report.fatal.empty()) {
      std::fprintf(stderr, "km_perfbench: %s\n", report.fatal.c_str());
    }
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "km_perfbench: %s\n", e.what());
    return 2;
  }
}
