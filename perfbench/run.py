#!/usr/bin/env python3
"""Build and run one perfbench workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds km_perfbench (and the km_serve daemon it drives) from this source
tree into $CARGO_TARGET_DIR, or .bench_build when that is unset, then runs
it.  Build output goes to stderr; stdout carries only the benchmark's
report, whose last line is the result JSON.  The exit status is the
benchmark's: non-zero when any op failed its correctness check.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pagerank-k64", "connectivity-k1024", "serve-mix")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} does not hold the repository sources; nothing to build")
    steps = []
    if not (build_dir / "Makefile").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "km_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def git_stamp():
    """(sha, dirty) of the checkout, or ("unknown", False) outside git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, env=env, capture_output=True, text=True,
                                check=True).stdout
        return sha, bool(status.strip())
    except (OSError, subprocess.CalledProcessError):
        return "unknown", False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build(build_dir)

    sha, dirty = git_stamp()
    command = [str(build_dir / "km_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--git-sha", sha, "--git-dirty", "1" if dirty else "0",
               # relative, so the serve-mix socket path stays short
               "--work-dir", os.path.relpath(build_dir, ROOT)]
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
