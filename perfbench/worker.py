"""Benchmark worker: runs one workload's CLI operations in-process.

`run.py` starts this script in a fresh interpreter with BLAS pinned to one
thread and `src/` on the import path. Each operation is one `satfl.cli.main`
call, as a user's `satfl run` or `satfl plan` would be; its artefacts are
hashed and compared with the reference digests in `references.json`.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR --digests

The first form prints one JSON result line; the second runs one iteration
and prints the digest of each operation's artefacts (used by `record.py`).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

import satfl
import satfl.cli
from run import HERE, SRC, worker_env
from tracing import PER_LAYER, ROOT_SPAN, Tracer

BUNDLED = SRC / "satfl" / "scenarios" / "bremen_10sat.yaml"
REFERENCES = HERE / "references.json"
POLICIES = ("fedsat", "fedsatschedule", "fedavg_sync")
ARTEFACTS = ("contact_plan.csv", "schedule.csv", "metrics.csv", "summary.txt")
# A benchmark seed n runs scenario seed n % SEED_CLASSES, so that every seed
# has recorded reference digests.
SEED_CLASSES = 16
MIN_ITERATIONS = 3
SETUP_PROBES = 15
# The calibration kernel's time on the host the benchmark was tuned on (a
# shared 2-vCPU Xeon VM at 2.1 GHz, at its fastest); it only sets the scale
# of the normalised seconds.
CALIB_REF_S = 0.015
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import satfl; "
    "print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class Op:
    op_id: str
    argv: list[str]
    out: Path


def scenario_seed(seed: int) -> int:
    return seed % SEED_CLASSES


def _bundled_doc() -> dict:
    with open(BUNDLED) as fh:
        return yaml.safe_load(fh)


def _sat_days(doc: dict) -> float:
    sats = sum(o.get("satellite_count", 1) for o in doc["constellation"]["orbits"])
    return sats * doc["sim"]["horizon_s"] / 86400.0


def _run_ops(scenario: Path, seed: int, workdir: Path) -> list[Op]:
    return [
        Op(policy, ["run", "--scenario", str(scenario), "--out", str(workdir / policy),
                    "--seed", str(seed), "--policy", policy], workdir / policy)
        for policy in POLICIES
    ]


def bremen_day(seed: int, workdir: Path) -> tuple[list[Op], float]:
    """The bundled scenario as shipped, once per policy."""
    return _run_ops(BUNDLED, seed, workdir), len(POLICIES) * _sat_days(_bundled_doc())


def bremen_mlp(seed: int, workdir: Path) -> tuple[list[Op], float]:
    """The bundled scenario with a larger MLP learner, once per policy."""
    doc = _bundled_doc()
    doc["learner"].update(kind="mlp", hidden=32, samples_per_class=2000)
    path = workdir / "bremen_mlp.yaml"
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
    return _run_ops(path, seed, workdir), len(POLICIES) * _sat_days(doc)


def shell_week(seed: int, workdir: Path) -> tuple[list[Op], float]:
    """20 planes x 10 satellites over 7 days, one `satfl plan` per satellite.

    Altitudes alternate 500/2000 km by plane, inclination 80 deg, RAANs 18
    deg apart, in-plane phases 36 deg apart with odd planes offset by 18
    deg, plus a shell-wide phase offset drawn from the seed.
    """
    offset = random.Random(seed).uniform(0.0, 36.0)
    base = _bundled_doc()
    base["sim"]["horizon_s"] = 7 * 86400.0
    ops, sat_days = [], 0.0
    for plane in range(20):
        for j in range(10):
            doc = copy.deepcopy(base)
            doc["constellation"]["orbits"] = [{
                "altitude_m": 500e3 if plane % 2 == 0 else 2000e3,
                "inclination_deg": 80.0,
                "raan_deg": 18.0 * plane,
                "initial_arg_latitude_deg": offset + 18.0 * (plane % 2) + 36.0 * j,
                "satellite_count": 1,
            }]
            op_id = f"p{plane:02d}s{j}"
            path = workdir / f"{op_id}.yaml"
            with open(path, "w") as fh:
                yaml.safe_dump(doc, fh, sort_keys=False)
            out = workdir / op_id
            ops.append(Op(op_id, ["plan", "--scenario", str(path), "--out", str(out),
                                  "--seed", str(seed)], out))
            sat_days += _sat_days(doc)
    return ops, sat_days


WORKLOADS = {"bremen_day": bremen_day, "bremen_mlp": bremen_mlp, "shell_week": shell_week}


def artefact_digest(out: Path) -> str:
    """SHA-256 over the names and bytes of the artefacts an op wrote."""
    h = hashlib.sha256()
    for name in ARTEFACTS:
        path = out / name
        if path.exists():
            h.update(name.encode() + b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
    return h.hexdigest()


def run_op(op: Op, tracer=None) -> tuple[float, str | None]:
    """Run one CLI op; return its wall seconds and artefact digest (None if
    the CLI exited non-zero)."""
    for name in ARTEFACTS:
        (op.out / name).unlink(missing_ok=True)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        if tracer is None:
            code = satfl.cli.main(op.argv)
        else:
            code = tracer.call(ROOT_SPAN, satfl.cli.main, op.argv)
        wall = time.perf_counter() - start
    return wall, (artefact_digest(op.out) if code == 0 else None)


_CAL_RNG = np.random.default_rng(0)
_CAL_A = _CAL_RNG.standard_normal((32, 32))
_CAL_V = _CAL_RNG.standard_normal(32)
_CAL_X = _CAL_RNG.standard_normal((4000, 8))
_CAL_W = _CAL_RNG.standard_normal((32, 8))
_CAL_BIG = _CAL_RNG.standard_normal(4096)


def calibrate() -> float:
    """Seconds a fixed computation takes now: a pure-Python loop, many tiny
    numpy calls and a few larger matrix products, the mix satfl runs. It
    calls no satfl code, so a change to the program cannot move it; other
    tenants of the host slow it as much as they slow the program."""
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(30000):
        acc += (i * 7) % 13
        table[i % 97] = acc
    v = _CAL_V
    for _ in range(800):
        v = np.tanh(_CAL_A @ v)
    for _ in range(20):
        a = np.tanh(_CAL_X @ _CAL_W.T)
        a.T @ _CAL_X
        np.sin(_CAL_BIG)
    return time.perf_counter() - start


def import_seconds() -> float:
    """Time `import satfl` takes in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=worker_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def load_references(workload: str, seed: int) -> dict[str, str | None]:
    with open(REFERENCES) as fh:
        refs = json.load(fh)["digests"]
    try:
        return refs[workload][str(seed)]
    except KeyError:
        raise SystemExit(
            f"no reference digests for {workload} at scenario seed {seed}; "
            "run perfbench/record.py"
        ) from None


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: Path, max_ops: int | None = None) -> dict:
    """Run whole iterations of a workload for `seconds` after one warm-up
    iteration. With trace, iterations alternate untraced and traced."""
    seed = scenario_seed(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    ops, sat_days = WORKLOADS[workload](seed, workdir)
    if max_ops is not None:
        sat_days *= max_ops / len(ops)
        ops = ops[:max_ops]
    refs = load_references(workload, seed)
    tracer = Tracer() if trace else None
    attempted = failed = 0
    plain, traced, layers = [], [], []
    norm: list[float] = []  # untraced op wall over calibration time, in op order

    def iteration(index: int, tracer: Tracer | None = None) -> list[float]:
        """Run every op once; return each op's wall seconds. Untraced, also
        record in `norm` each op's wall over the calibration time around it."""
        nonlocal attempted, failed
        walls, cal = [], calibrate() if tracer is None else None
        for op in ops:
            if tracer is not None:
                tracer.op_id = f"{index}:{op.op_id}"
            op_wall, digest = run_op(op, tracer)
            attempted += 1
            if digest is None or digest != refs.get(op.op_id):
                failed += 1
            if tracer is None:
                cal_before, cal = cal, calibrate()
                norm.append(op_wall / ((cal_before + cal) / 2))
            walls.append(op_wall)
        return walls

    def traced_iteration(index: int) -> list[float]:
        first_span = len(tracer.spans)
        tracer.install()
        try:
            walls = iteration(index, tracer)
        finally:
            tracer.uninstall()
        layers.append(tracer.take_iteration(first_span))
        return walls

    iteration(0)
    norm.clear()  # the warm-up is checked but not timed
    start = time.perf_counter()
    deadline = start + seconds
    setup, next_probe = [], start
    index = 1
    while (time.perf_counter() < deadline or len(plain) < MIN_ITERATIONS
           or (trace and len(traced) < MIN_ITERATIONS)):
        # set-up probes are spread over the run, so that no single slow
        # phase of the host decides their median
        if not trace and time.perf_counter() >= next_probe:
            cal_before, probe, cal_after = calibrate(), import_seconds(), calibrate()
            setup.append((probe, probe / ((cal_before + cal_after) / 2)))
            next_probe += seconds / SETUP_PROBES
        if trace and index % 2 == 0:
            traced.append(traced_iteration(index))
        else:
            plain.append(iteration(index))
        index += 1

    # Other tenants of the shared host slow whole phases of a run by up to
    # 1.6x, and the process is not descheduled then (its CPU time equals its
    # wall time), so the raw wall times of one code spread by a quarter of
    # their median between runs. Each op's wall is therefore divided by the calibration time
    # measured just before and after it, which those phases slow alike, and
    # the median ratio is scaled back to seconds by CALIB_REF_S.
    ratios = [norm[k::len(ops)] for k in range(len(ops))]
    norm_wall_s = CALIB_REF_S * sum(statistics.median(r) for r in ratios)
    result = {
        "attempted": attempted,
        "failed": failed,
        "iterations": len(plain),
        "scenario_seed": seed,
        "norm_wall_s": norm_wall_s,
        "norm_sat_days_per_s": sat_days / norm_wall_s,
        "raw_wall_s": statistics.median(map(sum, plain)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if setup:
        result["setup_s"] = CALIB_REF_S * statistics.median(r for _, r in setup)
        result["raw_setup_s"] = statistics.median(p for p, _ in setup)
        result["setup_probes"] = len(setup)
    if trace:
        # the lower median is an observed value, so counts stay whole
        per_layer = {name: statistics.median_low(row[name] for row in layers)
                     for name in layers[0]}
        per_layer["trace.wall_s"] = statistics.median(map(sum, traced))
        per_layer["trace.overhead_share"] = (
            per_layer["trace.wall_s"] / statistics.median(map(sum, plain)) - 1.0)
        result["per_layer"] = {name: (per_layer[name], unit) for name, unit, _ in PER_LAYER}
        result["traced_iterations"] = len(traced)
        tracer.write_spans(workdir.parent / f"spans-{workload}.jsonl")
    return result


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "satfl": satfl.__version__,
    }


def digests(workload: str, seed: int, workdir: Path) -> dict[str, str | None]:
    workdir.mkdir(parents=True, exist_ok=True)
    ops, _ = WORKLOADS[workload](scenario_seed(seed), workdir)
    return {op.op_id: run_op(op)[1] for op in ops}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--digests", action="store_true")
    args = parser.parse_args(argv)
    if args.digests:
        print(json.dumps(digests(args.workload, args.seed, args.workdir)))
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.workdir)
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
