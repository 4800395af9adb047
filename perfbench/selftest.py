#!/usr/bin/env python3
"""Self-test of the Helix benchmark at toy size.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

It passes when, for every workload in BENCHMARK.json:
  * an untraced run prints every end-to-end metric and a traced run every
    per-layer metric, each with a number and its unit, and neither
    reports a failure;
  * a run whose reference fingerprint is deliberately wrong reports the
    mismatch as a failed operation (and still exits 0);
and when the benchmark, copied alone into a directory without the
library sources, exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

RUN = os.path.join("perfbench", "run.py")


def run(args, cwd):
    proc = subprocess.run([sys.executable, RUN] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result


def check(ok, what, failures):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(["--workload", workload, "--seed", "1",
                                "--seconds", "1", "--trace", str(trace),
                                "--toy"], root)
            what = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                check(False, f"{what}: exit {code}, no result", failures)
                continue
            printed = result["metrics"]
            missing = [m["name"] for m in spec[key]
                       if not isinstance(printed.get(m["name"], {})
                                         .get("value"), (int, float))
                       or printed[m["name"]]["unit"] != m["unit"]]
            check(not missing, f"{what}: every {key} metric printed with "
                  "its unit" + (f" (missing {missing})" if missing else ""),
                  failures)
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{what}: failed {result['failed']} of "
                  f"{result['attempted']}", failures)
        code, result = run(["--workload", workload, "--seed", "1",
                            "--seconds", "1", "--trace", "0", "--toy",
                            "--corrupt-reference"], root)
        check(code == 0 and result is not None and not result["correct"]
              and result["failed"] >= 1,
              f"{workload}: a wrong reference fingerprint is a failure",
              failures)

    bare = os.path.join(root, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(root, "perfbench"),
                    os.path.join(bare, "perfbench"))
    code, result = run(["--workload", spec["workloads"][0]["name"],
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and result is None,
          "without library sources the benchmark exits non-zero", failures)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
