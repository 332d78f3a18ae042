"""Record the reference artefact digests in perfbench/references.json.

    python3 perfbench/record.py [--workload NAME ...]

For every workload and scenario seed class, one iteration runs in fresh
worker processes with OpenBLAS at 1 and at 2 threads. The digests are
recorded only if all processes produced identical artefacts; otherwise the
script names the first disagreement and exits 1 without writing. Rerun it
only when a change is meant to alter the artefacts, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

from run import HERE, ROOT, SCRATCH, SRC, src_lines, worker_env

sys.path.insert(0, str(SRC))
import worker  # noqa: E402  (needs src/ on the path)

BLAS_THREADS = ("1", "2")


def digests(workload: str, seed: int, threads: str) -> dict:
    env = worker_env()
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    workdir = SCRATCH / f"record-{workload}-{seed}-{threads}"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--seed", str(seed), "--workdir", str(workdir), "--digests"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=600,
            check=True,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(worker.WORKLOADS))
    args = parser.parse_args(argv)
    path = HERE / "references.json"
    refs = json.loads(path.read_text()) if path.exists() else {"digests": {}}
    for workload in args.workload or worker.WORKLOADS:
        table = {}
        for seed in range(worker.SEED_CLASSES):
            runs = [digests(workload, seed, t) for t in BLAS_THREADS]
            for threads, run in zip(BLAS_THREADS[1:], runs[1:]):
                if run != runs[0]:
                    op = next(k for k in runs[0] if run.get(k) != runs[0][k])
                    print(f"{workload} seed {seed} op {op}: artefacts differ between "
                          f"OpenBLAS at {BLAS_THREADS[0]} and at {threads} threads",
                          file=sys.stderr)
                    return 1
            table[str(seed)] = runs[0]
            refused = sum(d is None for d in runs[0].values())
            print(f"{workload} seed {seed}: {len(runs[0])} ops, {refused} exit non-zero",
                  flush=True)
        refs["digests"][workload] = table
    refs["environment"] = {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "blas_threads_compared": list(BLAS_THREADS),
        "src_lines": src_lines(),
        **worker.environment(),
    }
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
