"""``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``.

One process runs one workload: set-up (fixtures + one discarded warm-up
repetition), timed repetitions for ``--seconds`` seconds, the correctness
checks, then every metric by name with its unit and, as the last line of
standard output, the JSON object the driver reads.  README.md documents the
workloads, the metrics and the protocol.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parents[2]
if __name__ == "__main__":
    # Run as a script, sys.path[0] is this directory, whose module names
    # (trace, inputs, ...) must not shadow anything: import through the package,
    # find ``repro`` without PYTHONPATH, and pin the thread pools before numpy loads.
    sys.path[0] = str(_ROOT)
    sys.path.insert(0, str(_ROOT / "src"))
    from benchmarks.e2e import pin_threads

    pin_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

from benchmarks.e2e import measure  # noqa: E402
from benchmarks.e2e.inputs import DEFAULT_SEED, HOLDOUT_SEED  # noqa: E402, F401
from benchmarks.e2e.trace import NullRecorder, Recorder  # noqa: E402

WORKLOADS = ("sweep_render", "sweep_composite", "sweep_control", "serve_mixed")
GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "digests.json"
SPEC_PATH = _ROOT / "BENCHMARK.json"

#: Set-ups timed per run, each in a process of its own so that imports and
#: caches are cold: this run's, plus fresh ``--setup-only`` processes.
#: ``setup_s`` is their median (the driver's contract asks for several).
SETUP_SAMPLES = 3


def make_workload(name: str, seed: int, quick: bool):
    if name == "serve_mixed":
        from benchmarks.e2e.serve import ServeWorkload

        return ServeWorkload(seed, quick)
    from benchmarks.e2e.sweeps import SweepWorkload

    return SweepWorkload(name, seed, quick)


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


class Run:
    """One workload run: owns the scratch directory, the calibration and the samples."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.workload = make_workload(args.workload, args.seed, args.quick)
        measure.WORK_ROOT.mkdir(exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=measure.WORK_ROOT))
        self.calibration: measure.Calibration | None = None
        self._dirs = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.scratch / f"rep{self._dirs}"
        path.mkdir()
        return path

    def close(self) -> None:
        self.workload.teardown()
        shutil.rmtree(self.scratch, ignore_errors=True)

    # -- set-up -------------------------------------------------------------------------
    def set_up(self) -> dict:
        """Fixtures plus the warm-up repetition, timed from process start."""
        self.workload.setup(self.fresh_dir())
        self.workload.warm_up(self.fresh_dir())
        raw = time.perf_counter() - _PROCESS_START
        # Its first reading is the set-up's speed and opens the first repetition's interval.
        self.calibration = measure.Calibration(passes=1 if self.args.quick else 3)
        return {"raw_s": raw, "speed": self.calibration.last}

    def extra_set_ups(self, count: int) -> list[dict]:
        """The same set-up in ``count`` fresh processes, so that imports and caches are cold."""
        command = [sys.executable, str(Path(__file__).resolve()), "--setup-only"]
        command += ["--workload", self.args.workload, "--seed", str(self.args.seed)]
        if self.args.quick:
            command.append("--quick")
        samples = []
        for _ in range(count):
            done = subprocess.run(command, capture_output=True, text=True, timeout=170, check=True)
            samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
        return samples

    # -- measurement --------------------------------------------------------------------
    def repetition(self, rec) -> tuple[object, float]:
        """One repetition and the speed factor of the interval it ran in."""
        rep = self.workload.repetition(self.fresh_dir(), rec)
        return rep, self.calibration.factor()

    def untraced(self, setup: dict) -> dict:
        deadline = time.perf_counter() + self.args.seconds
        reps, speeds = [], []
        while True:
            rep, speed = self.repetition(NullRecorder())
            reps.append(rep)
            speeds.append(speed)
            if time.perf_counter() >= deadline:
                break
        peak_rss = self.workload.peak_rss_mb()
        golden = None if self.args.update_golden else load_golden(self.args.quick)
        problems = self.workload.check(reps, self.fresh_dir(), golden)
        self.workload.teardown()
        # The tier-1 scale keeps to this process's own set-up: the test times nothing.
        setups = [setup] + self.extra_set_ups(0 if self.args.quick else SETUP_SAMPLES - 1)

        latencies = [sorted(rep.latencies_ms) for rep in reps]
        samples = {
            "wall_s": [rep.wall_s for rep in reps],
            "cpu_s": [rep.cpu_s for rep in reps],
            "pred_per_s": [rep.predictions / rep.predict_s for rep in reps],
            "p50_ms": [measure.percentile(ordered, 0.50) for ordered in latencies],
            "p95_ms": [measure.percentile(ordered, 0.95) for ordered in latencies],
            "peak_rss_mb": [peak_rss],
            "setup_s": [sample["raw_s"] for sample in setups],
        }
        sample_speeds = {name: speeds for name in samples}
        sample_speeds["setup_s"] = [sample["speed"] for sample in setups]
        metrics, detail = {}, {}
        for spec in load_spec()["end_to_end"]:
            name, unit = spec["name"], spec["unit"]
            scaled = [
                measure.at_nominal_speed(value, unit, speed)
                for value, speed in zip(samples[name], sample_speeds[name])
            ]
            metrics[name] = {"value": statistics.median(scaled), "unit": unit}
            detail[name] = {
                "unit": unit,
                "scaled": measure.summary(scaled),
                "raw": measure.summary(samples[name]),
            }
        return {
            "metrics": metrics,
            "detail": detail,
            "speed": measure.summary(speeds),
            "per_repetition": {"speed": speeds, **{k: v for k, v in samples.items() if len(v) == len(reps)}},
            "setup_samples": setups,  # this process's, then each fresh process's
            "latency_samples_per_repetition": len(latencies[0]),
            "repetitions": len(reps),
            "attempted": sum(rep.attempted for rep in reps),
            "failed": sum(rep.failed for rep in reps),
            "problems": problems,
            "digest": self.workload.digest(reps[-1]),
        }

    def traced(self) -> dict:
        from benchmarks.e2e.probes import probe_groups

        units = {spec["name"]: spec["unit"] for spec in load_spec()["per_layer"]}

        def scaled(values: dict, speed: float) -> dict:
            return {
                name: measure.at_nominal_speed(value, units.get(name, ""), speed)
                for name, value in values.items()
            }

        rec = Recorder(f"{self.args.workload}/seed{self.args.seed}")
        deadline = time.perf_counter() + self.args.seconds
        overheads, attributions, reps = [], [], []
        while True:
            # Adjacent repetitions share the machine's state, so the paired ratio
            # cancels most of its drift; alternating which runs first cancels
            # whatever going second costs.
            if len(reps) % 2 == 0:
                plain, plain_speed = self.repetition(NullRecorder())
                rep, speed = self.repetition(rec)
            else:
                rep, speed = self.repetition(rec)
                plain, plain_speed = self.repetition(NullRecorder())
            overheads.append((rep.wall_s / speed) / (plain.wall_s / plain_speed) - 1.0)
            attributions.append(scaled(self.workload.attribution(rec, rep), speed))
            reps.append(rep)
            if time.perf_counter() >= deadline and len(reps) % 2 == 0:
                break
        self.workload.teardown()
        metrics = {key: statistics.median(a[key] for a in attributions) for key in attributions[0]}
        metrics["trace.overhead_share"] = statistics.median(overheads)
        self.calibration.read()  # the teardown is not part of the first probe group's interval
        for group in probe_groups(self.args.seed, self.args.quick, self.fresh_dir()):
            metrics.update(scaled(group, self.calibration.factor()))
        out_dir = Path(self.args.trace_dir)
        files = rec.write(out_dir / f"{self.args.workload}-seed{self.args.seed}")
        failed = sum(rep.failed for rep in reps)
        return {
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            "unlisted": sorted(set(metrics) - set(units)),
            "trace_files": [str(path) for path in files],
            "spans": len(rec.spans),
            "repetitions": len(reps),
            "attempted": sum(rep.attempted for rep in reps),
            "failed": failed,
            "problems": [f"{failed} operations failed in the traced repetitions"] if failed else [],
        }


def load_golden(quick: bool) -> dict:
    """This scale's golden digests (none if the file is missing: pinned seeds then fail)."""
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text()).get("quick" if quick else "full", {})


def update_golden(args: argparse.Namespace, digest: str) -> None:
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    scale = golden.setdefault("quick" if args.quick else "full", {})
    scale.setdefault(args.workload, {})[str(args.seed)] = digest
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="tiny sizes (the tier-1 test's scale)")
    parser.add_argument("--out", help="also write the full result JSON to this file")
    parser.add_argument("--trace-dir", default=str(measure.WORK_ROOT / "traces"))
    parser.add_argument("--update-golden", action="store_true", help="rewrite this run's golden digest")
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="time the set-up, print it as JSON and exit (run.py calls itself so)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(load_spec()["run_seconds"])
    fingerprint = measure.fingerprint()
    # SIGTERM must unwind like Ctrl-C does, so the server child and the scratch
    # directory are cleaned up by the finally below.
    previous_handler = signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args)
    try:
        setup = run.set_up()
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        result = run.traced() if args.trace else run.untraced(setup)
    finally:
        run.close()
        signal.signal(signal.SIGTERM, previous_handler)

    if args.update_golden and result.get("digest"):
        update_golden(args, result["digest"])
    correct = not result["problems"]
    result.update(
        workload=args.workload,
        seed=args.seed,
        scale="quick" if args.quick else "full",
        seconds=args.seconds,
        traced=bool(args.trace),
        correct=correct,
        fingerprint=fingerprint,
        calibration_nominal_s=measure.Calibration.NOMINAL_S,
    )
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
