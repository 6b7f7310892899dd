"""``python3 benchmarks/e2e/runset.py --runs 10 --out set.json``: one set of runs.

Runs every workload ``--runs`` times, run *i* with seed ``--seed + i``, each in
its own process through ``run.py``, and collects the full result JSONs into one
file for :mod:`benchmarks.e2e.compare`.  Workloads are interleaved so that the
machine's slow drift falls on all of them alike.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2016, help="run i uses seed + i")
    parser.add_argument("--workloads", nargs="+", default=workloads, choices=workloads)
    parser.add_argument("--out", required=True)
    parser.add_argument("extra", nargs="*", help="passed through to run.py (after --)")
    args = parser.parse_args(argv)

    runs = []
    work_root = HERE.parents[1] / ".bench_e2e"  # measure.WORK_ROOT, without importing numpy here
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as scratch:
        result_path = Path(scratch) / "run.json"
        for index in range(args.runs):
            for workload in args.workloads:
                command = [sys.executable, str(HERE / "run.py"), "--workload", workload]
                command += ["--seed", str(args.seed + index), "--out", str(result_path), *args.extra]
                done = subprocess.run(command, capture_output=True, text=True)
                if done.returncode != 0:
                    print(done.stdout[-2000:], done.stderr[-2000:], file=sys.stderr)
                    return done.returncode
                runs.append(json.loads(result_path.read_text()))
                print(f"run {index + 1}/{args.runs} {workload} seed {args.seed + index} ok", flush=True)
    Path(args.out).write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
