"""Tier-1 test of the end-to-end benchmark at its ``--quick`` scale.

Covers what a later PR can break without noticing: the output schema and the
name lists BENCHMARK.json promises, the trace arithmetic, and -- on deliberately
corrupted inputs -- every correctness check the benchmark relies on.
"""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest
from repro.reporting import Predictor, generate_report

from benchmarks.e2e import compare, run, serve, sweeps
from benchmarks.e2e.inputs import random_configs
from benchmarks.e2e.trace import NullRecorder, Recorder

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


def run_cli(capsys, *argv: str) -> tuple[int, dict, str]:
    """``run.main`` in-process; returns (exit code, last-line JSON, full stdout)."""
    code = run.main(["--quick", "--seconds", "0.2", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


def assert_result_schema(result: dict, listed: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert list(result["metrics"]) == [metric["name"] for metric in listed]
    units = {metric["name"]: metric["unit"] for metric in listed}
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))


def test_benchmark_json_names_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + list(run.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert len(SPEC["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_emits_the_end_to_end_metrics(capsys, workload):
    code, result, out = run_cli(capsys, "--workload", workload, "--seed", str(run.HOLDOUT_SEED))
    assert code == 0
    assert_result_schema(result, SPEC["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    for name in result["metrics"]:  # every metric is also printed by name with its unit
        assert re.search(rf"^{re.escape(name)}\s+\S+ \S+$", out, re.M)


def test_a_fresh_process_set_up_reports_its_time_and_speed():
    args = run.build_parser().parse_args(["--workload", "sweep_composite", "--quick"])
    harness = run.Run(args)
    try:
        (sample,) = harness.extra_set_ups(1)
    finally:
        harness.close()
    assert sample["raw_s"] > 0 and sample["speed"] > 0


@pytest.mark.parametrize("workload", ["sweep_render", "serve_mixed"])
def test_traced_run_emits_the_per_layer_metrics_and_a_consistent_trace(capsys, tmp_path, workload):
    out_file = tmp_path / "result.json"
    code, result, _ = run_cli(
        capsys, "--workload", workload, "--trace", "1", "--trace-dir", str(tmp_path), "--out", str(out_file)
    )
    assert code == 0
    assert_result_schema(result, SPEC["per_layer"])
    full = json.loads(out_file.read_text())
    assert full["unlisted"] == []  # names emitted == names listed
    assert full["fingerprint"]["nproc"] >= 1 and full["seed"] == run.DEFAULT_SEED

    jsonl, chrome = (Path(path) for path in full["trace_files"])
    spans = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert json.loads(chrome.read_text())["traceEvents"]
    roots = [span for span in spans if span["parent"] is None]
    assert roots and all(span["name"] == f"rep.{workload}" for span in roots)
    last = roots[-1]
    top = [span for span in spans if span["parent"] == last["id"]]
    covered = sum(span["end_s"] - span["start_s"] for span in top)
    wall = last["end_s"] - last["start_s"]
    residual = wall - covered
    assert 0 <= residual <= 0.05 * wall
    shares = [name for name in result["metrics"] if re.fullmatch(r"[a-z]+\.share", name)]
    total = sum(result["metrics"][name]["value"] for name in shares)
    assert total + result["metrics"]["trace.residual_share"]["value"] == pytest.approx(1.0, abs=1e-6)
    if workload == "sweep_render":
        assert result["metrics"]["rendering.share"]["value"] > 0
        assert result["metrics"]["serving.share"]["value"] == 0
    else:
        assert result["metrics"]["serving.share"]["value"] > 0.5
        assert result["metrics"]["rendering.share"]["value"] == 0


# -- every correctness check fires on a corrupted input ---------------------------------

@pytest.fixture(scope="module")
def repetitions(tmp_path_factory):
    """One genuine quick repetition per sweep workload, to corrupt copies of."""
    made = {}
    for name in ("sweep_render", "sweep_composite", "sweep_control"):
        workload = sweeps.SweepWorkload(name, run.DEFAULT_SEED, quick=True)
        made[name] = (workload, workload.repetition(tmp_path_factory.mktemp(name), NullRecorder()))
    return made


def golden_for(workload, rep) -> dict:
    return {workload.name: {str(workload.seed): workload.digest(rep)}}


@pytest.mark.parametrize("name", ["sweep_render", "sweep_composite", "sweep_control"])
def test_a_genuine_repetition_passes_every_check(repetitions, tmp_path, name):
    workload, rep = repetitions[name]
    assert workload.check([rep], tmp_path, golden_for(workload, rep)) == []
    assert run.load_golden(quick=True)[name][str(run.DEFAULT_SEED)] == workload.digest(rep)


def test_lost_row_and_changed_feature_are_caught(repetitions, tmp_path):
    workload, rep = repetitions["sweep_render"]
    golden = golden_for(workload, rep)
    lost = copy.copy(rep)
    lost.corpus = copy.deepcopy(rep.corpus)
    lost.corpus.records.pop()
    assert any("!= planned" in p for p in workload.check([lost], tmp_path / "a", golden))

    changed = copy.copy(rep)
    changed.corpus = copy.deepcopy(rep.corpus)
    changed.corpus.records[0].features.active_pixels += 1
    problems = workload.check([rep, changed], tmp_path / "b", golden)
    assert any("differs between repetitions" in p for p in problems)
    assert any("golden" in p for p in workload.check([changed], tmp_path / "c", golden))


def test_missing_golden_of_a_pinned_seed_and_failure_rows_are_caught(repetitions, tmp_path):
    workload, rep = repetitions["sweep_composite"]
    assert workload.seed in sweeps.PINNED_SEEDS
    assert any("no golden" in p for p in workload.check([rep], tmp_path / "a", {}))
    assert workload.check([rep], tmp_path / "b", None) == []  # --update-golden skips the comparison
    other = sweeps.SweepWorkload("sweep_composite", 7, quick=True)  # an unpinned seed has no golden
    assert not any("golden" in p for p in other.check([rep], tmp_path / "c", {}))

    failing = copy.copy(rep)
    failing.bad_predictions = 2
    problems = workload.check([failing], tmp_path / "d", golden_for(workload, rep))
    assert problems == ["2 specs or predictions failed"]


def test_pool_specs_are_attributed_to_their_layers_not_to_the_study(tmp_path):
    workload = sweeps.SweepWorkload("sweep_control", run.DEFAULT_SEED, quick=True)
    rec = Recorder("test")
    rep = workload.repetition(tmp_path, rec)
    assert not rec.total_by_name(rep.root_span, "spec.")  # the pool's specs have no spans
    metrics = workload.attribution(rec, rep)
    assert metrics["modeling.share"] > 0 and metrics["compositing.share"] > 0
    assert metrics["rendering.share"] == 0
    layers = sum(metrics[f"{layer}.share"] for layer in sweeps.LAYER_SHARES)
    assert layers + metrics["trace.residual_share"] == pytest.approx(1.0, abs=1e-9)


def test_host_timings_do_not_enter_the_digest(repetitions):
    workload, rep = repetitions["sweep_render"]
    jittered = copy.deepcopy(rep.corpus)
    host = next(r for r in jittered.records if r.architecture == sweeps.HOST_ARCHITECTURE)
    host.frame_seconds *= 2
    assert sweeps.deterministic_digest(jittered) == workload.digest(rep)


def test_irreproducible_report_is_caught(repetitions, tmp_path):
    workload, rep = repetitions["sweep_composite"]
    tampered = copy.copy(rep)
    tampered.report_dir = tmp_path / "report"
    generate_report(rep.corpus, tampered.report_dir, seed=workload.seed)
    with open(tampered.report_dir / "report.md", "a") as handle:
        handle.write("\nnondeterministic line\n")
    problems = sweeps.report_is_reproducible(tampered, tmp_path / "again", workload.seed)
    assert problems == ["report artifact report.md differs between two runs on one corpus"]


def test_wrong_composite_and_blown_live_budget_are_caught(monkeypatch):
    scale = sweeps.SCALES["quick"]
    assert sweeps.compositing_matches_reference(run.DEFAULT_SEED, scale) == []

    class Corrupting(sweeps.Compositor):
        def composite(self, *args, engine="runlength", **kwargs):
            result = super().composite(*args, engine=engine, **kwargs)
            if engine == "runlength":
                result.framebuffer.rgba[0, 0, 0] += 1e-6
            return result

        def composite_streaming(self, *args, **kwargs):
            result = super().composite_streaming(*args, **kwargs)
            result.peak_live_images = result.max_live_ranks + 2
            return result

    monkeypatch.setattr(sweeps, "Compositor", Corrupting)
    problems = sweeps.compositing_matches_reference(run.DEFAULT_SEED, scale)
    assert sum("differs from composite_reference" in p for p in problems) == 3
    assert sum("exceed the budget" in p for p in problems) == 3


def test_incomplete_resume_is_caught(repetitions, tmp_path):
    workload, rep = repetitions["sweep_control"]
    golden = golden_for(workload, rep)
    broken = copy.copy(rep)
    broken.resume_report = copy.copy(rep.resume_report)
    broken.resume_report.cache_hits -= 1
    broken.resume_digest = "0" * 64
    problems = workload.check([broken], tmp_path, golden)
    assert any("cached rows" in p for p in problems)
    assert any("resumed corpus differs" in p for p in problems)


def test_serving_parity_check_catches_a_wrong_or_failed_response(tmp_path):
    models = serve.fit_models(run.DEFAULT_SEED, 8, tmp_path)
    predictor = Predictor.load(models)
    slices = [key for key in predictor.available() if key[1] != "compositing"]
    configs = random_configs(np.random.default_rng(1), 8, 0.5, slices)
    with serve.ServerProcess(models) as server:
        bodies = serve.drive(server.port, serve.encode(configs)).bodies
        pid = server.pid
    assert not Path(f"/proc/{pid}").exists()  # reaped on exit from the with-block
    assert serve.mismatches(predictor, configs, bodies) == 0
    wrong = list(bodies)
    payload = json.loads(wrong[0][1])
    payload["predictions"][0]["seconds"] *= 1.0 + 1e-15
    wrong[0] = (200, json.dumps(payload).encode())
    wrong[1] = (500, wrong[1][1])
    assert serve.mismatches(predictor, configs, wrong) == 2


def test_a_failed_check_exits_non_zero(capsys, monkeypatch):
    monkeypatch.setattr(sweeps, "compositing_matches_reference", lambda seed, scale: ["injected"])
    code, result, out = run_cli(capsys, "--workload", "sweep_composite")
    assert code == 1 and result["correct"] is False
    assert "CHECK FAILED: injected" in out


# -- compare ----------------------------------------------------------------------------

def test_compare_verdicts():
    steady = [1.00, 1.01, 0.99, 1.02, 0.98]
    assert compare.verdict(steady, steady, "lower", 0.10)[0] == "same"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "lower", 0.10)[0] == "worse"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "higher", 0.10)[0] == "better"
    noisy = [1.0, 1.4, 0.7, 1.3, 0.8]
    assert compare.verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.10)[0] == "unresolved"
    assert compare.verdict(noisy, [v * 3 for v in noisy], "lower", 0.10)[0] == "worse"
