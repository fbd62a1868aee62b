#!/usr/bin/env python3
"""Simulator benchmark: build, run one workload, check it, print metrics.

    python3 simbench/run.py --workload fig09_base --seed 1 --trace 0

Builds simbench/ (the simulator library from src/ plus the simbench
program) into .bench_build/simbench, runs it on the workload, and
checks every simulation it ran:

  * each run's behavioural metrics (every SimMetrics field except
    events_simulated) equal the committed reference for (workload, seed),
    when simbench/reference/<workload>.json holds one; for other seeds a
    digest of the behavioural metrics is printed instead;
  * every repeat of a run -- later passes, the traced run, telemetry off,
    one shard -- reproduces the same behaviour exactly;
  * fig09_base at seed 1 reproduces the glitch row in EXPERIMENTS.md;
  * the traced pass drops no trace records.

With --trace 0 it reports the end-to-end metrics of untraced passes;
with --trace 1 the per-layer metrics of the traced pass. Every metric is
printed as "metric <name> <value> <unit>", then a summary line, and the
last line of standard output is one JSON object:

    {"correct": ..., "attempted": runs, "failed": runs_failed,
     "metrics": {name: {"value": v, "unit": u}, ...}}

--write-reference records the runs' behaviour as the reference for the
seed instead of checking against it. simbench/README.md documents the
workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "simbench")
BINARY = os.path.join(BUILD_DIR, "simbench")

WORKLOADS = ("fig09_base", "table2_rt64", "shared_edge", "scale256_shards4")

# Figure 9 as measured in EXPERIMENTS.md (seed 1): terminals -> glitches.
FIG09_EXPERIMENTS_ROW = {200: 0, 220: 0, 230: 0, 240: 0, 250: 88, 260: 513,
                         280: 1200, 300: 2101}
PAPER_FIG09_KNEE = 220       # the paper's Figure 9 example
TABLE2_BASE_CAPACITY = 206   # real-time row at 16 disks, EXPERIMENTS.md
PAPER_TABLE2_SCALEUP = 0.95  # the paper's real-time row at 64 disks


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds simbench; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("simbench: simulator sources (src/) not found next to simbench/")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def metric_units(trace):
    """name -> unit of the metrics BENCHMARK.json lists for the pass."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def reference_path(directory, workload):
    return os.path.join(directory, workload + ".json")


def load_reference(directory, workload, seed):
    path = reference_path(directory, workload)
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f).get("seeds", {}).get(str(seed))


def write_reference(directory, workload, seed, behaviour):
    path = reference_path(directory, workload)
    data = {"seeds": {}}
    if os.path.isfile(path):
        with open(path) as f:
            data = json.load(f)
    data["seeds"][str(seed)] = behaviour
    # One line per run keeps the file diffable.
    seeds = []
    for key in sorted(data["seeds"], key=int):
        runs = ",\n".join("  %s: %s" % (json.dumps(label), json.dumps(metrics))
                          for label, metrics in data["seeds"][key].items())
        seeds.append(" %s: {\n%s\n }" % (json.dumps(key), runs))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as f:
        f.write('{"seeds": {\n%s\n}}\n' % ",\n".join(seeds))


def digest(behaviour):
    canonical = json.dumps(behaviour, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def first_difference(expected, actual):
    for key in sorted(set(expected) | set(actual)):
        if expected.get(key) != actual.get(key):
            return "%s: expected %r, got %r" % (key, expected.get(key),
                                                  actual.get(key))
    return "identical"


def check_runs(args, runs):
    """Returns (failed run count, problems, behaviour by label)."""
    problems = []
    failed = set()  # indices of failing runs
    missing = 0     # reference runs that did not run
    behaviour = {}  # label -> behaviour of its first run
    for i, run in enumerate(runs):
        label = run["label"]
        if run["variant"] == "rejected":
            failed.add(i)
            problems.append("%s: rejected by SimConfig::Validate" % label)
            continue
        if label not in behaviour:
            behaviour[label] = run["metrics"]
        elif run["metrics"] != behaviour[label]:
            failed.add(i)
            problems.append("%s (%s, pass %d) differs from its first run: %s"
                            % (label, run["variant"], run["pass"],
                               first_difference(behaviour[label],
                                                run["metrics"])))
        if run.get("trace_dropped", 0) > 0:
            failed.add(i)
            problems.append("%s: tracer dropped %d records"
                            % (label, run["trace_dropped"]))

    reference = None
    if not args.write_reference:
        reference = load_reference(args.reference, args.workload, args.seed)
    if reference is not None:
        for i, run in enumerate(runs):
            if i in failed:
                continue
            expected = reference.get(run["label"])
            if expected is None:
                failed.add(i)
                problems.append("%s: not in the reference" % run["label"])
            elif run["metrics"] != expected:
                failed.add(i)
                problems.append("%s (%s) differs from the reference: %s"
                                % (run["label"], run["variant"],
                                   first_difference(expected, run["metrics"])))
        for label in reference:
            if label not in behaviour:
                problems.append("%s: in the reference but not run" % label)
                missing += 1

    if args.workload == "fig09_base" and args.seed == 1 and not args.quick:
        for i, run in enumerate(runs):
            if run["variant"] == "rejected":
                continue
            terminals = run["metrics"]["terminals"]
            expected = FIG09_EXPERIMENTS_ROW.get(terminals)
            if expected is not None and run["metrics"]["glitches"] != expected:
                failed.add(i)
                problems.append("%s: %d glitches, EXPERIMENTS.md has %d"
                                % (run["label"], run["metrics"]["glitches"],
                                   expected))
    return len(failed) + missing, problems, behaviour


def accuracy_line(workload, behaviour):
    """Informational comparison with the paper; never gated."""
    glitches = {m["terminals"]: m["glitches"] for m in behaviour.values()}
    free = [t for t, g in sorted(glitches.items()) if g == 0]
    largest = free[-1] if free else 0
    if workload == "fig09_base":
        return ("accuracy fig09 knee (largest glitch-free point) %d terminals "
                "vs paper %d (%+.0f%%)"
                % (largest, PAPER_FIG09_KNEE,
                   100.0 * (largest - PAPER_FIG09_KNEE) / PAPER_FIG09_KNEE))
    if workload == "table2_rt64":
        return ("accuracy table2 real-time 64-disk scaleup %.2f (largest "
                "glitch-free point %d / 4 x %d) vs paper %.2f"
                % (largest / (4.0 * TABLE2_BASE_CAPACITY), largest,
                   TABLE2_BASE_CAPACITY, PAPER_TABLE2_SCALEUP))
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="simulate a few seconds per run (self-test)")
    parser.add_argument("--reference", default=os.path.join(HERE, "reference"),
                        help="directory of reference files")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not build():
        log("simbench: build failed")
        return 1

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--mode", "trace" if args.trace else "e2e"]
    if args.quick:
        command.append("--quick")
    program = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if program.returncode != 0:
        log("simbench: exited with %d" % program.returncode)
        return 1
    meta, runs, result = {}, [], None
    for line in program.stdout.splitlines():
        kind, _, payload = line.partition(" ")
        if kind == "META":
            meta = json.loads(payload)
        elif kind == "RUN":
            runs.append(json.loads(payload))
        elif kind == "RESULT":
            result = json.loads(payload)
    if result is None or not runs:
        log("simbench: no result printed")
        return 1

    failed, problems, behaviour = check_runs(args, runs)
    if args.write_reference:
        if failed:
            log("simbench: not writing a reference from failing runs")
            for problem in problems:
                log("  " + problem)
            return 1
        write_reference(args.reference, args.workload, args.seed, behaviour)
        log("simbench: wrote reference for %s seed %d"
            % (args.workload, args.seed))

    metrics = {name: {"value": result[name], "unit": unit}
               for name, unit in metric_units(args.trace).items()}

    print("simbench %s seed %d (%s, %s, %d cores)"
          % (args.workload, args.seed, meta.get("build_type"),
             meta.get("compiler"), meta.get("cores", 0)))
    for name, metric in metrics.items():
        print("metric %-32s %.6g %s" % (name, metric["value"], metric["unit"]))
    if not args.trace:
        print("info   passes %d" % result["passes"])
    print("metric %-32s %d count" % ("runs", len(runs)))
    print("metric %-32s %d count" % ("runs_failed", failed))
    line = accuracy_line(args.workload, behaviour)
    if line:
        print(line)
    if load_reference(args.reference, args.workload, args.seed) is None:
        print("no reference for seed %d; behaviour digest %s"
              % (args.seed, digest(behaviour)))
    for problem in problems:
        print("FAIL " + problem)
    print(json.dumps({"correct": failed == 0,
                      "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
