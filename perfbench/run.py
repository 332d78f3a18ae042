"""Host-time benchmark of the satfl command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from the `src/` directory next to
this one. One worker process per run (`worker.py`, BLAS pinned to one thread)
drives `satfl.cli.main` in-process for S seconds and checks every op's
artefacts against the reference digests. With --trace 0 the result holds the
end-to-end metrics, with --trace 1 the per-layer ones (see README.md). The
last line of standard output is the JSON result; earlier lines give the
environment and each metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
WORKER_TIMEOUT_S = 150
END_TO_END = {"norm_wall_s": "s", "norm_sat_days_per_s": "satday/s", "setup_s": "s",
              "peak_rss_mb": "MB"}


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    # users' installed packages have cached bytecode; let the import cache it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "satfl" / "__init__.py").is_file():
        print(f"error: no satfl package under {SRC}", file=sys.stderr)
        return 2

    env = worker_env()
    environment = {
        "python": platform.python_version(),
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "loadavg_1m_at_start": os.getloadavg()[0],
        "seed": args.seed,
        "src_lines": src_lines(),
    }
    workdir = SCRATCH / f"{args.workload}-{os.getpid()}"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", str(workdir)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.SubprocessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    environment.update(result["env"])
    environment.update({k: result[k] for k in (
        "scenario_seed", "iterations", "traced_iterations", "setup_probes",
        "raw_wall_s", "raw_setup_s") if k in result})

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["per_layer"].items()}
    else:
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    print("env " + json.dumps(environment))
    print(f"failed_share = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
