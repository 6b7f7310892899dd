"""The adaptive planner: determinism, ranking oracle, dedup, trajectory ledger.

The acceptance properties of uncertainty-driven sweep planning live here:

* selection is a pure function of ``(corpus digest, candidate config, seed)``
  -- two invocations produce byte-identical batch payloads;
* the interval-width ranking matches a hand-computed three-candidate oracle
  (wide slice > narrow slice, unknown slice above both);
* a selected spec's corpus key never already exists in the corpus (rows or
  failures), so the adaptive loop cannot re-spend budget;
* a two-round synthetic run's ledger shows monotone non-increasing mean
  interval width and disjoint per-round selections.

Everything runs on synthetic architectures (bit-deterministic rows), so the
assertions are exact, not statistical.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.modeling.models import make_model
from repro.modeling.regression import LinearRegressionResult
from repro.reporting import predictor as predictor_module
from repro.reporting.predictor import Predictor
from repro.reporting.suite import FittedModel, ModelSuite
from repro.study.adaptive import (
    candidate_plan,
    run_adaptive_rounds,
    score_candidates,
    select_batch,
    selection_token,
)
from repro.study.corpus_io import corpus_digest
from repro.study.executor import run_plan
from repro.study.plan import (
    ExperimentSpec,
    build_plan,
    corpus_spec_keys,
    smoke_configuration,
    spec_corpus_key,
)
from repro.study.trajectory import (
    append_trajectory_rows,
    format_markdown,
    load_trajectory,
    trajectory_row,
)


def _synthetic_config(seed: int = 2016, architectures=("gpu1-k40m",), samples: int = 8):
    """A smoke-sized, synthetic-only (bit-deterministic) study configuration."""
    return replace(
        smoke_configuration(seed),
        architectures=architectures,
        techniques=("raytrace",),
        samples_per_technique=samples,
    )


def _synthetic_corpus(config):
    corpus, report = run_plan(build_plan(config, include_compositing=False))
    assert report.failed == 0
    return corpus


@pytest.fixture(scope="module")
def base_config():
    return _synthetic_config()


@pytest.fixture(scope="module")
def base_corpus(base_config):
    return _synthetic_corpus(base_config)


def _volume_entry(architecture: str, residual_std: float) -> FittedModel:
    """A hand-built volume fit: zero slopes, intercept 5.0, chosen residual std.

    Predictions are a flat 5.0 s, far above any plausible half-width, so no
    interval is clipped at zero and every width is exactly
    ``2 * sigmas * residual_std`` -- hand-computable.
    """
    model = make_model("volume")
    model.fits["fit"] = LinearRegressionResult(
        coefficients=np.array([0.0, 0.0, 5.0]),
        r_squared=1.0,
        residual_std=residual_std,
        num_observations=10,
        term_names=model.groups[0].term_names,
    )
    return FittedModel(architecture, "volume", model, num_rows=10)


def _volume_spec(architecture: str) -> ExperimentSpec:
    return ExperimentSpec(
        kind="synthetic",
        base_seed=2016,
        architecture=architecture,
        technique="volume",
        simulation="kripke",
        num_tasks=4,
        cells_per_task=8,
        image_width=64,
        image_height=64,
        synthetic_samples_in_depth=24,
    )


class TestRankingOracle:
    """Interval-width ranking against a hand-computed three-candidate oracle."""

    def test_hand_computed_widths_and_order(self):
        suite = ModelSuite()
        suite.entries[("arch-wide", "volume")] = _volume_entry("arch-wide", 0.5)
        suite.entries[("arch-narrow", "volume")] = _volume_entry("arch-narrow", 0.1)
        specs = [
            _volume_spec("arch-narrow"),
            _volume_spec("arch-wide"),
            _volume_spec("arch-unknown"),
        ]
        scored = score_candidates(specs, suite)
        # Unknown slice = maximal uncertainty, then wide (2*2*0.5), then narrow.
        assert [c.spec.architecture for c in scored] == [
            "arch-unknown",
            "arch-wide",
            "arch-narrow",
        ]
        assert not scored[0].known
        assert scored[1].width == pytest.approx(2.0)  # 2 sigmas * 0.5 * 2
        assert scored[2].width == pytest.approx(0.4)  # 2 sigmas * 0.1 * 2

    def test_widths_scale_with_sigmas(self, monkeypatch):
        monkeypatch.setattr(predictor_module, "DEFAULT_INTERVAL_SIGMAS", 1.0)
        suite = ModelSuite()
        suite.entries[("arch-wide", "volume")] = _volume_entry("arch-wide", 0.5)
        scored = score_candidates([_volume_spec("arch-wide")], suite)
        assert scored[0].width == pytest.approx(1.0)

    def test_unknown_slice_scores_inf_via_predictor(self):
        suite = ModelSuite()
        suite.entries[("arch-wide", "volume")] = _volume_entry("arch-wide", 0.5)
        widths = Predictor(suite).interval_widths_for_specs(
            [_volume_spec("arch-unknown").key_payload(), _volume_spec("arch-wide").key_payload()]
        )
        assert np.isinf(widths[0])
        assert np.isfinite(widths[1])


class TestDeterminism:
    """Selection is a pure function of (corpus digest, config, seed)."""

    def test_same_inputs_byte_identical_payload(self, base_corpus, base_config):
        one = select_batch(base_corpus, base_config, batch_size=4)
        two = select_batch(base_corpus, base_config, batch_size=4)
        assert json.dumps(one.to_payload(), sort_keys=True) == json.dumps(
            two.to_payload(), sort_keys=True
        )

    def test_seed_changes_candidates(self, base_corpus, base_config):
        digest = corpus_digest(base_corpus)
        assert selection_token(digest, base_config, 1) != selection_token(digest, base_config, 2)
        one = candidate_plan(base_config, selection_token(digest, base_config, 1))
        two = candidate_plan(base_config, selection_token(digest, base_config, 2))
        assert [s.key_payload() for s in one.specs] != [s.key_payload() for s in two.specs]

    def test_corpus_digest_changes_candidates(self, base_config):
        token_a = selection_token("a" * 64, base_config, 2016)
        token_b = selection_token("b" * 64, base_config, 2016)
        one = candidate_plan(base_config, token_a)
        two = candidate_plan(base_config, token_b)
        assert [s.key_payload() for s in one.specs] != [s.key_payload() for s in two.specs]

    def test_candidate_matrix_is_expanded(self, base_config, base_corpus):
        token = selection_token(corpus_digest(base_corpus), base_config, 2016)
        plan = candidate_plan(base_config, token, expand=4, include_compositing=False)
        static = build_plan(base_config, include_compositing=False)
        assert len(plan.specs) == 4 * len(static.specs)


class TestDedup:
    """A selected spec's key never already exists in the corpus."""

    def test_selected_keys_disjoint_from_corpus(self, base_corpus, base_config):
        selection = select_batch(base_corpus, base_config, batch_size=8)
        existing = corpus_spec_keys(base_corpus)
        for candidate in selection.candidates:
            assert spec_corpus_key(candidate.spec) not in existing

    def test_corpus_candidates_are_deduplicated(self, base_corpus, base_config):
        # Feed the corpus's own specs back as candidates: all must dedup away.
        static = build_plan(base_config, include_compositing=False)
        selection = select_batch(
            base_corpus, base_config, batch_size=8, candidates=list(static.specs)
        )
        assert selection.candidates == []
        assert selection.selected == []
        assert selection.deduplicated == len(static.specs)

    def test_failure_rows_count_as_spent(self, base_corpus, base_config):
        static = build_plan(base_config, include_compositing=False)
        spent = static.specs[0]
        corpus = replace_failures(base_corpus, spent)
        selection = select_batch(corpus, base_config, batch_size=8, candidates=[spent])
        assert selection.candidates == []
        assert selection.deduplicated == 1

    def test_corpus_spec_keys_cover_rows_and_failures(self, base_corpus, base_config):
        keys = corpus_spec_keys(base_corpus)
        assert len(keys) == len(base_corpus.records)
        static = build_plan(base_config, include_compositing=False)
        for spec in static.specs:
            assert spec_corpus_key(spec) in keys


def replace_failures(corpus, spec):
    """A shallow corpus copy with ``spec`` recorded as a failure row."""
    from repro.modeling.study import FailureRecord, StudyCorpus

    return StudyCorpus(
        records=list(corpus.records),
        compositing_records=list(corpus.compositing_records),
        failures=list(corpus.failures)
        + [FailureRecord(kind=spec.kind, spec=spec.key_payload(), reason="error")],
    )


class TestAdaptiveRounds:
    """The multi-round driver: monotone ledger, disjoint selections."""

    @pytest.fixture(scope="class")
    def run(self):
        seed_config = replace(
            smoke_configuration(2016),
            architectures=("cpu-i7-4770k",),
            techniques=("raytrace",),
            samples_per_technique=8,
        )
        corpus = _synthetic_corpus(seed_config)
        adaptive_config = replace(
            seed_config,
            architectures=("cpu-i7-4770k", "gpu1-k40m", "gpu2-titan-k20"),
        )
        return run_adaptive_rounds(
            corpus,
            adaptive_config,
            rounds=2,
            batch_size=8,
            seed=2016,
            expand=2,
            include_compositing=False,
        )

    def test_two_rounds_executed(self, run):
        assert len(run.rounds) == 2
        assert run.executed == 16
        assert run.failures == 0
        assert len(run.corpus.records) == 8 + 16

    def test_mean_interval_width_monotone_non_increasing(self, run):
        means = [row["mean_interval_width"] for row in run.trajectory_rows()]
        assert len(means) == 3
        assert all(isinstance(m, float) for m in means)
        assert all(b <= a for a, b in zip(means, means[1:]))

    def test_rounds_select_disjoint_specs(self, run):
        first = {spec_corpus_key(c.spec) for c in run.rounds[0].selection.selected}
        second = {spec_corpus_key(c.spec) for c in run.rounds[1].selection.selected}
        assert first and second
        assert first.isdisjoint(second)

    def test_unknown_slices_rank_first(self, run):
        # Round 0 has two unfit architectures; every selected spec is one of them.
        selected = run.rounds[0].selection.selected
        assert all(not c.known for c in selected)
        assert {c.spec.architecture for c in selected} <= {"gpu1-k40m", "gpu2-titan-k20"}

    def test_trajectory_rows_record_selected_keys(self, run):
        rows = run.trajectory_rows()
        assert [len(row["selected"]) for row in rows] == [8, 8, 0]
        assert rows[0]["unknown_candidates"] > rows[1]["unknown_candidates"]


class TestTrajectoryLedger:
    """BENCH_learning.json round-trip, append, schema guard, markdown."""

    def _row(self, base_corpus, base_config, round_index=0):
        suite = ModelSuite.fit_corpus(base_corpus)
        selection = select_batch(base_corpus, base_config, batch_size=2, suite=suite)
        return trajectory_row(base_corpus, suite, selection, round_index=round_index)

    def test_append_and_round_trip(self, tmp_path, base_corpus, base_config):
        path = tmp_path / "BENCH_learning.json"
        row = self._row(base_corpus, base_config)
        append_trajectory_rows(path, [row])
        append_trajectory_rows(path, [self._row(base_corpus, base_config, round_index=1)])
        payload = load_trajectory(path)
        assert payload["schema"] == 1
        assert [r["round"] for r in payload["rows"]] == [0, 1]
        # The written row is JSON-clean and survives a byte round-trip.
        assert json.loads(json.dumps(row)) == payload["rows"][0]
        assert payload["rows"][0]["corpus_size"]["total"] == len(base_corpus.records)

    def test_missing_file_is_empty_ledger(self, tmp_path):
        payload = load_trajectory(tmp_path / "absent.json")
        assert payload == {"schema": 1, "rows": []}

    def test_newer_schema_refused(self, tmp_path):
        path = tmp_path / "BENCH_learning.json"
        path.write_text(json.dumps({"schema": 99, "rows": []}))
        with pytest.raises(ValueError, match="newer"):
            load_trajectory(path)

    @pytest.mark.parametrize(
        "text, field",
        [
            ("[]", "JSON list"),
            ('{"schema": "1", "rows": []}', "'schema'"),
            ('{"schema": 1, "rows": {}}', "'rows'"),
        ],
        ids=["list", "string-schema", "object-rows"],
    )
    def test_wrong_shape_is_a_value_error_naming_file_and_field(self, tmp_path, text, field):
        path = tmp_path / "BENCH_learning.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=field) as caught:
            load_trajectory(path)
        assert str(caught.value).startswith(f"{path}: ")

    def test_markdown_table(self, tmp_path, base_corpus, base_config):
        path = tmp_path / "BENCH_learning.json"
        payload = append_trajectory_rows(path, [self._row(base_corpus, base_config)])
        text = format_markdown(payload)
        assert "Adaptive learning curve" in text
        assert f"| 0 | {len(base_corpus.records)} |" in text


class TestSpecFromPayloadStrict:
    """Unknown payload keys raise (schema drift)."""

    def test_round_trip_still_exact(self, base_config, spec_from_payload):
        spec = build_plan(base_config, include_compositing=False).specs[0]
        assert spec_from_payload(spec.key_payload()) == spec

    def test_unknown_key_raises(self, base_config, spec_from_payload):
        payload = build_plan(base_config, include_compositing=False).specs[0].key_payload()
        payload["mystery_knob"] = 3
        with pytest.raises(ValueError, match="mystery_knob"):
            spec_from_payload(payload)


class TestAdaptiveCli:
    """plan --adaptive / run --adaptive through the real entry point."""

    def _write_corpus(self, tmp_path, config):
        from repro.study.corpus_io import save_corpus

        corpus = _synthetic_corpus(config)
        path = tmp_path / "corpus.json"
        save_corpus(corpus, path)
        return path

    def _cli(self, *argv):
        from repro.study.cli import main

        return main(list(argv))

    def test_run_adaptive_refuses_an_unreadable_ledger_before_any_round(self, tmp_path, capsys):
        corpus_path = self._write_corpus(tmp_path, _synthetic_config())
        ledger = tmp_path / "BENCH_learning.json"
        ledger.write_text('{"schema": "1", "rows": []}')
        out = tmp_path / "out.json"
        code = self._cli(
            "run", "--preset", "smoke", "--adaptive", "--corpus", str(corpus_path),
            "--learning-out", str(ledger), "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {ledger}: ledger field 'schema'")
        assert not out.exists()

    def test_plan_adaptive_writes_deterministic_batch(self, tmp_path, capsys):
        config_args = [
            "--preset",
            "smoke",
            "--architectures",
            "gpu1-k40m",
            "--techniques",
            "raytrace",
            "--samples",
            "8",
            "--no-compositing",
        ]
        corpus_path = self._write_corpus(tmp_path, _synthetic_config())
        out_one = tmp_path / "batch1.json"
        out_two = tmp_path / "batch2.json"
        for out in (out_one, out_two):
            code = self._cli(
                "plan",
                *config_args,
                "--adaptive",
                "--corpus",
                str(corpus_path),
                "--batch-size",
                "3",
                "--out",
                str(out),
            )
            assert code == 0
        assert out_one.read_bytes() == out_two.read_bytes()
        payload = json.loads(out_one.read_text())
        assert len(payload["selected"]) == 3
        existing = {
            tuple(key) for key in map(spec_corpus_key, (s["spec"] for s in payload["selected"]))
        }
        assert len(existing) == 3

    def test_plan_adaptive_requires_corpus(self, capsys):
        assert self._cli("plan", "--adaptive") == 2

    def test_plan_adaptive_exhausted_pool_exit_code(self, tmp_path, monkeypatch):
        # Dedup exhaustion cannot be staged through flags (the candidate draw
        # is re-derived from the corpus digest), so stub the candidate matrix
        # empty and assert the CLI surfaces the dedicated exit code.
        import repro.study.adaptive as adaptive_module
        from repro.study.cli import EXIT_NO_CANDIDATES
        from repro.study.plan import SweepPlan

        corpus_path = self._write_corpus(tmp_path, _synthetic_config())
        monkeypatch.setattr(
            adaptive_module,
            "candidate_plan",
            lambda config, token, expand=1, include_compositing=True: SweepPlan(config=config),
        )
        code = self._cli(
            "plan",
            "--preset",
            "smoke",
            "--architectures",
            "gpu1-k40m",
            "--techniques",
            "raytrace",
            "--samples",
            "8",
            "--no-compositing",
            "--adaptive",
            "--corpus",
            str(corpus_path),
        )
        assert code == EXIT_NO_CANDIDATES

    def test_run_adaptive_appends_ledger(self, tmp_path):
        corpus_path = self._write_corpus(
            tmp_path,
            replace(
                smoke_configuration(2016),
                architectures=("cpu-i7-4770k",),
                techniques=("raytrace",),
                samples_per_technique=8,
            ),
        )
        ledger = tmp_path / "BENCH_learning.json"
        code = self._cli(
            "run",
            "--preset",
            "smoke",
            "--architectures",
            "cpu-i7-4770k,gpu1-k40m,gpu2-titan-k20",
            "--techniques",
            "raytrace",
            "--samples",
            "8",
            "--no-compositing",
            "--adaptive",
            "--corpus",
            str(corpus_path),
            "--rounds",
            "2",
            "--batch-size",
            "8",
            "--expand",
            "2",
            "--out",
            str(tmp_path / "grown.json"),
            "--learning-out",
            str(ledger),
        )
        assert code == 0
        rows = load_trajectory(ledger)["rows"]
        means = [row["mean_interval_width"] for row in rows]
        assert len(means) == 3
        assert all(b <= a for a, b in zip(means, means[1:]))


class TestCheckedInLedger:
    """The repository's BENCH_learning.json satisfies the acceptance criteria."""

    def test_monotone_non_increasing_over_two_rounds(self):
        path = Path(__file__).resolve().parents[1] / "BENCH_learning.json"
        payload = load_trajectory(path)
        rows = payload["rows"]
        assert len(rows) >= 3  # two executed rounds + the final refit row
        means = [row["mean_interval_width"] for row in rows]
        assert all(isinstance(m, float) for m in means)
        assert all(b <= a for a, b in zip(means, means[1:]))
        selected = [frozenset(tuple(key) for key in row["selected"]) for row in rows]
        assert selected[0].isdisjoint(selected[1])
