#!/usr/bin/env python3
"""Build and run the sealdl host-time benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--record]

Run from the root of a checkout. The first call configures and builds
perfbench/ (the benchmark binary plus the repository's src/ libraries) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls only
rebuild what changed. Build output goes to stderr. The binary's output is
passed through; its last line is the result object, checked here against the
metric catalog in BENCHMARK.json. Traced runs also write their spans to
<build dir>/spans-<workload>-<seed>.json.

--record rewrites perfbench/expected.txt with the simulated outputs the run
observes, for changes that move the model's numbers on purpose.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no sealdl sources under {ROOT}/src; run from a full checkout")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(bdir, "sealdl_perfbench")


def git_commit():
    # Only a checkout that is itself a repository: never search upwards.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def check_result(line, trace):
    """The result object must carry exactly the declared metrics and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    try:
        result = json.loads(line)
    except ValueError:
        return "the last line is not a JSON result"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys differ from the contract"
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != {m["name"]: m["unit"] for m in declared}:
        return "metrics differ from BENCHMARK.json"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--expected", os.path.join(HERE, "expected.txt"),
               "--commit", git_commit()]
    if args.trace == "1":
        command += ["--spans",
                    os.path.join(bdir, f"spans-{args.workload}-{args.seed}.json")]
    if args.record:
        command.append("--record")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {BINARY_TIMEOUT_S} s")  # run() killed and reaped it
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        fail(f"benchmark exited with {run.returncode}")
    problem = check_result(lines[-1], args.trace == "1")
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(problem)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
