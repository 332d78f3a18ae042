"""Self-test of the benchmark; not part of the package's test suite.

    python3 perfbench/selftest.py

Runs every workload at a tiny size and checks that:
- every metric named in BENCHMARK.json is reported, with its unit;
- the artefacts match the reference digests, and one flipped artefact byte
  makes the affected ops fail;
- the traced layer self times account for the traced wall time;
- shell_week's pass and refusal counts repeat exactly;
- run.py fails without printing a result where there is no source tree.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from run import END_TO_END, HERE, ROOT, SCRATCH, SRC

sys.path.insert(0, str(SRC))
import satfl.exports  # noqa: E402  (needs src/ on the path)
import worker  # noqa: E402
from tracing import PER_LAYER, SELF_TIME_METRICS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_reported_metrics() -> None:
    declared = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    check(declared[0] == END_TO_END, "run.py's end-to-end units match BENCHMARK.json")
    check(declared[1] == {n: u for n, u, _ in PER_LAYER},
          "tracing's per-layer units match BENCHMARK.json")
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            proc = bench(w["name"], trace)
            what = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                check(False, f"{what} exits 0: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{what} prints the four result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{what} ops all match their reference digests")
            reported = {n: m["unit"] for n, m in result["metrics"].items()}
            check(reported == declared[trace], f"{what} reports every metric with its unit")
            if trace:
                m = {n: v["value"] for n, v in result["metrics"].items()}
                accounted = sum(m[n] for n in SELF_TIME_METRICS)
                check(abs(accounted / m["trace.wall_s"] - 1.0) < 0.05,
                      f"{what}: layer self times sum to {accounted:.4f} s of "
                      f"{m['trace.wall_s']:.4f} s traced wall")


def check_flipped_byte() -> None:
    workdir = SCRATCH / f"selftest-{os.getpid()}"
    original = satfl.exports.write_run_summary

    def flipped(result, path):
        original(result, path)
        data = bytearray(open(path, "rb").read())
        data[0] ^= 1
        open(path, "wb").write(bytes(data))

    try:
        clean = worker.measure("bremen_day", 5, 0.0, False, workdir)
        satfl.exports.write_run_summary = flipped
        broken = worker.measure("bremen_day", 5, 0.0, False, workdir)
    finally:
        satfl.exports.write_run_summary = original
        shutil.rmtree(workdir, ignore_errors=True)
    check(clean["failed"] == 0, "bremen_day in-process: no failed ops")
    check(broken["failed"] == broken["attempted"],
          f"a flipped summary byte fails every op "
          f"(failed_share {broken['failed'] / broken['attempted']:.2f})")


def check_shell_week_repeats() -> None:
    workdir = SCRATCH / f"selftest-{os.getpid()}"
    try:
        runs = [worker.measure("shell_week", 0, 0.0, True, workdir, max_ops=12)
                for _ in range(2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    counts = [{n: r["per_layer"][n][0] for n in ("orbital.passes", "orbital.refused")}
              for r in runs]
    check(counts[0] == counts[1] and counts[0]["orbital.passes"] > 0,
          f"shell_week (12 ops) repeats its counts exactly: {counts[0]}")
    check(runs[0]["failed"] == runs[1]["failed"],
          f"shell_week (12 ops) fails the same ops each run: "
          f"{runs[0]['failed']} of {runs[0]['attempted']}")


def check_bare_directory() -> None:
    bare = SCRATCH / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(SPEC["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    check_reported_metrics()
    check_flipped_byte()
    check_shell_week_repeats()
    check_bare_directory()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
