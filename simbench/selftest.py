#!/usr/bin/env python3
"""Self-test of the simulator benchmark (about a minute).

    python3 simbench/selftest.py

Runs simbench/run.py in its --quick mode (a few simulated seconds per
run) against a scratch reference under .bench_build/, and asserts that:

  * every metric BENCHMARK.json names is printed, with the unit
    BENCHMARK.json gives it, on every workload, in both passes;
  * runs and runs_failed are printed and a clean run is correct;
  * a perturbed reference is reported as a failed run;
  * the benchmark exits non-zero, printing no result, when the simulator
    sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")
WORKLOADS = ("fig09_base", "table2_rt64", "shared_edge", "scale256_shards4")


def run(workload, trace, reference, cwd=ROOT, extra=()):
    command = [sys.executable, os.path.join(cwd, "simbench", "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", "0",
               "--trace", str(trace), "--quick", "--reference", reference]
    command += list(extra)
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)


def result_of(process):
    assert process.returncode == 0, process.stderr[-2000:]
    return process.stdout, json.loads(process.stdout.strip().splitlines()[-1])


def check_metrics(stdout, result, expected):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert set(result["metrics"]) == set(expected), (
        sorted(set(result["metrics"]) ^ set(expected)))
    lines = stdout.splitlines()
    for name, unit in expected.items():
        assert result["metrics"][name]["unit"] == unit, name
        assert any(l.split()[:2] == ["metric", name] and l.split()[-1] == unit
                   for l in lines), "%s not printed" % name
    for name in ("runs", "runs_failed"):
        assert any(l.split()[:2] == ["metric", name] for l in lines), name


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    shutil.rmtree(SCRATCH, ignore_errors=True)
    reference = os.path.join(SCRATCH, "reference")

    for workload in WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            result_of(run(workload, trace, reference,
                          extra=["--write-reference"]))
            stdout, result = result_of(run(workload, trace, reference))
            check_metrics(stdout, result, expected)
            assert result["correct"] and result["failed"] == 0, stdout
        print("ok  %s: every metric printed, reference reproduced" % workload)

    # One changed number in the reference must fail the run it belongs to.
    path = os.path.join(reference, "fig09_base.json")
    with open(path) as f:
        data = json.load(f)
    runs = data["seeds"]["3"]
    label = sorted(runs)[0]
    runs[label]["disk_reads"] += 1
    with open(path, "w") as f:
        json.dump(data, f)
    stdout, result = result_of(run("fig09_base", 0, reference))
    assert not result["correct"] and result["failed"] >= 1, stdout
    assert "FAIL %s" % label in stdout, stdout
    print("ok  perturbed reference reported: %d run(s) failed"
          % result["failed"])

    # Without the simulator sources the benchmark fails without a result.
    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(HERE, os.path.join(bare, "simbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    process = run("fig09_base", 0, reference, cwd=bare)
    assert process.returncode != 0, process.stdout
    assert "{" not in process.stdout, process.stdout
    print("ok  bare checkout exits %d without a result" % process.returncode)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
