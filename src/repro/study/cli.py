"""``python -m repro.study`` -- the sweep pipeline's command-line face.

Subcommands
-----------
``plan``
    Expand the matrix and print (or write) it without running anything.
    ``--adaptive --corpus corpus.json`` switches to uncertainty-driven
    selection: fit the models on the corpus, score the expanded candidates
    by prediction-interval width, emit the widest ``--batch-size`` as a
    deterministic batch (pure function of corpus digest + config + seed).
``run``
    Execute the sweep: ``--jobs N`` for the process pool, ``--cache-dir`` to
    persist rows, ``--resume`` to reuse them, ``--timeout`` per experiment,
    ``--out`` for the corpus JSON.  ``--require-cached`` exits non-zero if
    anything had to execute -- CI's "second run is 100% cache hits" gate.
    ``--adaptive --corpus corpus.json`` runs ``--rounds`` fit -> select ->
    render -> refit rounds instead of the static matrix and appends the
    learning-curve rows to ``--learning-out`` (``BENCH_learning.json``).
``merge``
    Concatenate corpus files (e.g. per-architecture shards).
``fit``
    Load a corpus and report the fitted models (Table 12's R^2 view) plus
    optional cross-validation accuracy rows, through the
    :class:`~repro.reporting.suite.ModelSuite` registry.
``report``
    Corpus -> full artifact tree: ``models.json``, Tables 12-17 and Figures
    11-15 as JSON + Markdown, manifest, and the consolidated ``report.md``.
``predict``
    Load a ``models.json`` and serve batch predictions with bounded-error
    intervals for inline or file-supplied configurations.  The request goes
    through the serving tier's request path
    (:meth:`repro.serving.core.ServingCore.predict_rows`), so CLI answers are
    bit-identical to what ``python -m repro.serve`` returns over the socket.

Exit codes: 0 success; 2 argument/usage errors (argparse), among them any
matrix value its :data:`repro.study.plan.AXES` row rejects (a name no
registry holds on every named axis, a count below its minimum), with nothing
planned, run or written; 3 a ``run`` with
``--require-cached`` executed at least one experiment; 4 a ``run`` recorded
failure rows; 5 a ``fit``/``report`` where *every* fit was degenerate (the
structured failure report is printed as JSON); 6 a ``predict`` naming an
unknown ``(architecture, technique)`` slice (the structured JSON error is
printed to stdout); 7 an adaptive ``plan``/``run`` whose candidate matrix
deduplicated to nothing (the corpus already covers every candidate); 8 a
radix schedule (``--radices``) whose product does not equal a swept task
count (the :class:`repro.compositing.RadixFactorError` payload is printed
as JSON).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

from repro.compositing import RadixFactorError
from repro.modeling.study import StudyConfiguration
from repro.reporting.predictor import DEFAULT_INTERVAL_SIGMAS
from repro.reporting.report import generate_report
from repro.reporting.suite import ModelSuite
from repro.serving.core import RENDER_DEFAULTS, ServingCore, ServingError
from repro.study.adaptive import run_adaptive_rounds, select_batch
from repro.study.cache import CorpusCache
from repro.study.corpus_io import load_corpus, merge_corpora, save_corpus
from repro.study.executor import run_plan
from repro.study.plan import AXES, build_plan, full_configuration, smoke_configuration
from repro.study.trajectory import append_trajectory_rows, load_trajectory
from repro.util.files import atomic_write

#: Exit code of a fit/report whose every slice was degenerate.
EXIT_ALL_FITS_DEGENERATE = 5

#: Exit code of a predict naming an unknown (architecture, technique) slice.
EXIT_UNKNOWN_MODEL = 6

#: Exit code of an adaptive plan/run with no candidates left after dedup.
EXIT_NO_CANDIDATES = 7

#: Exit code of a run whose radix schedule does not tile a swept task count.
EXIT_RADIX_SCHEDULE = 8

__all__ = ["main", "build_parser"]

_PRESETS = {
    "default": lambda seed: StudyConfiguration(seed=seed),
    "smoke": smoke_configuration,
    "full": full_configuration,
}


#: Configuration fields that hold a tuple: their flag takes a comma list.
_LIST_FIELDS = {item.name for item in fields(StudyConfiguration) if str(item.type).startswith("tuple")}


def _axis_type(axis):
    """The argparse ``type`` of an axis flag: each value through ``axis.resolve``; a typo is exit 2."""

    def parse(text: str):
        try:
            if axis.field in _LIST_FIELDS:
                return tuple(axis.resolve(part.strip()) for part in text.split(",") if part.strip())
            return axis.resolve(text.strip())
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None

    return parse


def _add_matrix_arguments(parser: argparse.ArgumentParser) -> None:
    matrix = parser.add_argument_group("matrix", "override the preset's sweep matrix")
    matrix.add_argument("--preset", choices=sorted(_PRESETS), default="default")
    matrix.add_argument("--seed", type=int, default=2016)
    for axis in AXES:
        metavar = axis.flag[2:].replace("-", "_").upper()
        matrix.add_argument(
            axis.flag, dest=axis.field, type=_axis_type(axis), metavar=metavar, help=axis.help
        )
    matrix.add_argument("--no-compositing", action="store_true", help="skip the Eq. 5.5 sweep")


def _add_adaptive_arguments(parser: argparse.ArgumentParser) -> None:
    adaptive = parser.add_argument_group("adaptive", "uncertainty-driven selection (requires --corpus)")
    adaptive.add_argument(
        "--adaptive",
        action="store_true",
        help="select the widest-interval candidates instead of the static matrix",
    )
    adaptive.add_argument("--corpus", help="corpus JSON the models are fitted on")
    adaptive.add_argument("--batch-size", type=int, default=8, help="experiments per adaptive batch")
    adaptive.add_argument(
        "--expand", type=int, default=4, help="candidate density multiplier over --samples"
    )


def _configuration_from(args: argparse.Namespace) -> StudyConfiguration:
    """The preset with the matrix flags given applied; an empty comma list keeps the preset's value."""
    overrides = {axis.field: getattr(args, axis.field) for axis in AXES}
    return replace(
        _PRESETS[args.preset](args.seed),
        **{name: value for name, value in overrides.items() if value not in (None, ())},
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.study",
        description="Parallel, cached, resumable execution of the rendering study sweep.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    plan_parser = commands.add_parser("plan", help="expand the matrix without running it")
    _add_matrix_arguments(plan_parser)
    _add_adaptive_arguments(plan_parser)
    plan_parser.add_argument("--out", help="write the expanded plan (or adaptive batch) as JSON")

    run_parser = commands.add_parser("run", help="execute the sweep")
    _add_matrix_arguments(run_parser)
    _add_adaptive_arguments(run_parser)
    run_parser.add_argument("--rounds", type=int, default=2, help="adaptive fit->select->render rounds")
    run_parser.add_argument(
        "--learning-out", help="append adaptive learning-curve rows to this BENCH_learning.json"
    )
    run_parser.add_argument("--jobs", type=int, default=1, help="worker processes (1 = in-process)")
    run_parser.add_argument("--timeout", type=float, help="per-experiment timeout in seconds")
    run_parser.add_argument("--cache-dir", help="content-addressed row cache directory")
    run_parser.add_argument(
        "--resume", action="store_true", help="reuse cached rows instead of re-running them"
    )
    run_parser.add_argument(
        "--require-cached",
        action="store_true",
        help="exit 3 if any experiment executed (CI resume gate)",
    )
    run_parser.add_argument("--out", default="study_corpus.json", help="corpus output path")

    merge_parser = commands.add_parser("merge", help="concatenate corpus files")
    merge_parser.add_argument("output")
    merge_parser.add_argument("inputs", nargs="+")

    fit_parser = commands.add_parser("fit", help="fit the models to a corpus file")
    fit_parser.add_argument("corpus")
    fit_parser.add_argument("--crossval", action="store_true", help="also report 3-fold accuracy rows")
    fit_parser.add_argument("--seed", type=int, default=2016, help="cross-validation shuffle seed")

    report_parser = commands.add_parser(
        "report", help="corpus -> models.json + Tables 12-17 / Figures 11-15 (JSON + Markdown)"
    )
    report_parser.add_argument("corpus")
    report_parser.add_argument("--out-dir", default="study-report", help="artifact tree root")
    report_parser.add_argument("--seed", type=int, default=2016, help="cross-validation shuffle seed")

    predict_parser = commands.add_parser(
        "predict", help="serve batch predictions with intervals from a models.json"
    )
    predict_parser.add_argument("models", help="models.json written by `report` (or ModelSuite.save)")
    predict_parser.add_argument("--configs", help="JSON file: list of configuration objects")
    predict_parser.add_argument("--architecture", help="inline configuration: architecture")
    predict_parser.add_argument("--technique", help="inline configuration: technique")
    predict_parser.add_argument("--num-tasks", type=int, default=RENDER_DEFAULTS["num_tasks"])
    predict_parser.add_argument("--cells-per-task", type=int, default=RENDER_DEFAULTS["cells_per_task"])
    predict_parser.add_argument(
        "--image-size", type=int, default=RENDER_DEFAULTS["image_width"], help="square image edge"
    )
    predict_parser.add_argument("--samples-in-depth", type=int, default=RENDER_DEFAULTS["samples_in_depth"])
    predict_parser.add_argument("--no-build", action="store_true", help="exclude the BVH build")
    predict_parser.add_argument(
        "--sigmas", type=float, default=DEFAULT_INTERVAL_SIGMAS, help="interval half-width in residual stds"
    )
    predict_parser.add_argument("--out", help="write the prediction JSON here instead of stdout")

    return parser


# -- subcommands ----------------------------------------------------------------------

def _read(load, path: str):
    """``load(path)``, or ``None`` after an ``error: <path>: <reason>`` line if it cannot."""
    try:
        return load(path)
    except OSError as error:
        print(f"error: {path}: {error.strerror or error}", file=sys.stderr)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
    return None


def _load_configs(path: str) -> list:
    """The configuration list of a ``predict --configs`` file; ``ValueError`` naming the file otherwise."""
    with open(path, encoding="utf-8") as handle:
        try:
            configs = json.load(handle)
        except ValueError as error:
            raise ValueError(f"{path}: {error}") from None
    if not isinstance(configs, list):
        raise ValueError(f"{path}: --configs must hold a JSON list of configuration objects")
    return configs


def _load_adaptive_corpus(args):
    """The corpus behind ``--adaptive``, or ``None`` + exit code on usage error."""
    if not args.corpus:
        print("error: --adaptive needs --corpus (the models must fit on something)", file=sys.stderr)
        return None, 2
    corpus = _read(load_corpus, args.corpus)
    return corpus, 0 if corpus is not None else 2


def _print_selection(selection) -> None:
    print(
        f"adaptive: {len(selection.candidates)} candidates "
        f"({selection.deduplicated} deduplicated against corpus, "
        f"{selection.unknown_candidates()} on unfit slices), "
        f"selected {len(selection.selected)}/{selection.batch_size}"
    )
    mean_width = selection.mean_interval_width()
    if mean_width is not None:
        print(f"adaptive: mean interval width {mean_width:.4f}s over fitted candidates")
    for candidate in selection.selected:
        width = "unfit-slice" if not candidate.known else f"{candidate.width:.4f}s"
        print(f"  {width:>12s}  {candidate.spec.label()}")


def _command_plan_adaptive(args) -> int:
    corpus, code = _load_adaptive_corpus(args)
    if corpus is None:
        return code
    selection = select_batch(
        corpus,
        _configuration_from(args),
        batch_size=args.batch_size,
        seed=args.seed,
        expand=args.expand,
        include_compositing=not args.no_compositing,
    )
    _print_selection(selection)
    if args.out:
        with atomic_write(args.out) as handle:
            handle.write(json.dumps(selection.to_payload(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    if not selection.candidates:
        print("error: the corpus already covers every candidate", file=sys.stderr)
        return EXIT_NO_CANDIDATES
    return 0


def _command_run_adaptive(args) -> int:
    corpus, code = _load_adaptive_corpus(args)
    if corpus is None:
        return code
    # The ledger is appended after the rounds ran: refuse an unreadable one first.
    if args.learning_out and _read(load_trajectory, args.learning_out) is None:
        return 2
    cache = CorpusCache(args.cache_dir) if args.cache_dir else None
    run = run_adaptive_rounds(
        corpus,
        _configuration_from(args),
        rounds=args.rounds,
        batch_size=args.batch_size,
        seed=args.seed,
        expand=args.expand,
        jobs=args.jobs,
        timeout=args.timeout,
        cache=cache,
        resume=args.resume,
        include_compositing=not args.no_compositing,
    )
    for index, round_ in enumerate(run.rounds):
        _print_selection(round_.selection)
        if round_.report is not None:
            print(
                f"round {index}: executed={round_.report.executed} "
                f"cache_hits={round_.report.cache_hits} failed={round_.report.failed}"
            )
    save_corpus(
        run.corpus,
        args.out,
        metadata={"preset": args.preset, "adaptive_rounds": len(run.rounds)},
    )
    _print_corpus_line(run.corpus, args.out)
    if args.learning_out:
        payload = append_trajectory_rows(args.learning_out, run.trajectory_rows())
        print(f"learning curve: {len(payload['rows'])} rows -> {args.learning_out}")
    if not run.rounds or not run.rounds[0].selection.selected:
        print("error: the corpus already covers every candidate", file=sys.stderr)
        return EXIT_NO_CANDIDATES
    if run.failures:
        return 4
    return 0


def _command_plan(args) -> int:
    if args.adaptive:
        return _command_plan_adaptive(args)
    plan = build_plan(_configuration_from(args), include_compositing=not args.no_compositing)
    counts = plan.counts()
    print(f"plan: {len(plan)} experiments ({json.dumps(counts)})")
    for (kind, axis, technique), count in sorted(plan.breakdown().items()):
        label = f"{kind:12s} {axis:12s} {technique or '-':22s}"
        print(f"  {label} {count:4d}")
    if args.out:
        with atomic_write(args.out) as handle:
            json.dump(plan.to_payload(), handle, indent=1)
        print(f"wrote {args.out}")
    return 0


def _command_run(args) -> int:
    if args.adaptive:
        return _command_run_adaptive(args)
    if (args.resume or args.require_cached) and not args.cache_dir:
        print(
            "error: --resume/--require-cached need --cache-dir (there is no cache to resume from)",
            file=sys.stderr,
        )
        return 2
    config = _configuration_from(args)
    plan = build_plan(config, include_compositing=not args.no_compositing)
    cache = CorpusCache(args.cache_dir) if args.cache_dir else None
    corpus, report = run_plan(
        plan, jobs=args.jobs, timeout=args.timeout, cache=cache, resume=args.resume
    )
    save_corpus(corpus, args.out, metadata={"report": report.as_dict(), "preset": args.preset})
    print(
        f"sweep: planned={report.planned} cache_hits={report.cache_hits} "
        f"executed={report.executed} failed={report.failed}"
    )
    _print_corpus_line(corpus, args.out)
    for failure in report.failures:
        spec = plan.specs[failure.index]
        print(f"  FAILED [{failure.reason}] {spec.label()}: {failure.message}", file=sys.stderr)
    if args.require_cached and report.executed > 0:
        print(
            f"--require-cached: {report.executed} experiments executed (expected 0)",
            file=sys.stderr,
        )
        return 3
    if report.failed:
        return 4
    return 0


def _command_merge(args) -> int:
    corpora = [_read(load_corpus, path) for path in args.inputs]
    if any(corpus is None for corpus in corpora):
        return 2
    merged = merge_corpora(corpora)
    save_corpus(merged, args.output, metadata={"merged_from": list(args.inputs)})
    print(
        f"merged {len(args.inputs)} corpora -> {args.output}: "
        f"{len(merged.records)} rendering rows, "
        f"{len(merged.compositing_records)} compositing rows, "
        f"{len(merged.failures)} failures"
    )
    return 0


def _print_corpus_line(corpus, path: str | None = None) -> None:
    print(
        f"corpus: {len(corpus.records)} rendering rows, "
        f"{len(corpus.compositing_records)} compositing rows, "
        f"{len(corpus.failures)} failures" + (f" -> {path}" if path else "")
    )


def _degenerate_exit(suite) -> int:
    """The all-degenerate outcome: a structured JSON failure report, exit 5."""
    print(
        json.dumps(
            {"error": "all-fits-degenerate", "failures": suite.failures},
            indent=2,
            sort_keys=True,
        )
    )
    print("error: no model could be fitted from this corpus", file=sys.stderr)
    return EXIT_ALL_FITS_DEGENERATE


def _command_fit(args) -> int:
    corpus = _read(load_corpus, args.corpus)
    if corpus is None:
        return 2
    _print_corpus_line(corpus)
    suite = ModelSuite.fit_corpus(corpus, seed=args.seed)
    for entry in suite.all_entries():
        label = entry.technique
        if entry.technique == "compositing":
            label = f"compositing ({entry.num_rows} rows)"
        line = f"  {entry.architecture:12s} {label:20s} R^2={entry.model.r_squared:.4f}"
        if args.crossval:
            if entry.crossval_accuracy is None:
                line += f"  crossval skipped ({entry.crossval_skipped})"
            else:
                row = entry.crossval_accuracy
                line += f"  within50={row['within_50']:.0f}% avg={row['average_percent']:.1f}%"
        print(line)
    for failure in suite.failures:
        print(
            f"  DEGENERATE {failure['architecture']}/{failure['technique']}: "
            f"{failure['message']} ({failure['num_rows']} rows)",
            file=sys.stderr,
        )
    for warning in suite.all_warnings():
        print(f"  WARNING {json.dumps(warning, sort_keys=True)}", file=sys.stderr)
    if suite.is_empty():
        return _degenerate_exit(suite)
    return 0


def _command_report(args) -> int:
    corpus = _read(load_corpus, args.corpus)
    if corpus is None:
        return 2
    _print_corpus_line(corpus)
    result = generate_report(corpus, args.out_dir, seed=args.seed)
    print(
        f"report: {len(result.suite.entries)} renderer models"
        + (" + compositing" if result.suite.compositing is not None else "")
        + f", {len(result.suite.failures)} degenerate fits, "
        f"{len(result.suite.all_warnings())} warnings -> {result.out_dir}"
    )
    print(f"  models:   {result.models_path}")
    print(f"  markdown: {result.markdown_path}")
    if result.suite.is_empty():
        return _degenerate_exit(result.suite)
    return 0


def _command_predict(args) -> int:
    core = _read(lambda path: ServingCore.from_path(path, cache_size=0), args.models)
    if core is None:
        return 2
    if args.configs:
        configs = _read(_load_configs, args.configs)
        if configs is None:
            return 2
    else:
        if not args.architecture or not args.technique:
            print(
                "error: pass --configs FILE, or an inline --architecture and --technique",
                file=sys.stderr,
            )
            return 2
        configs = [
            {
                "architecture": args.architecture,
                "technique": args.technique,
                "num_tasks": args.num_tasks,
                "cells_per_task": args.cells_per_task,
                "image_width": args.image_size,
                "image_height": args.image_size,
                "samples_in_depth": args.samples_in_depth,
                "include_build": not args.no_build,
            }
        ]

    try:
        rows, meta = core.predict_rows(configs, sigmas=args.sigmas)
    except ServingError as error:
        if error.code == "unknown-model":
            # The structured error a serving client would receive, exit 6.
            print(json.dumps(error.payload(), indent=2, sort_keys=True))
            print(f"error: {error}", file=sys.stderr)
            return EXIT_UNKNOWN_MODEL
        print(f"error: {error}", file=sys.stderr)
        return 2
    payload = {
        "models": args.models,
        "models_digest": meta["models_digest"],
        "sigmas": args.sigmas,
        "predictions": rows,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with atomic_write(args.out) as handle:
            handle.write(text + "\n")
        print(f"wrote {len(rows)} predictions -> {args.out}")
    else:
        print(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = {
        "plan": _command_plan,
        "run": _command_run,
        "merge": _command_merge,
        "fit": _command_fit,
        "report": _command_report,
        "predict": _command_predict,
    }[args.command]
    try:
        return command(args)
    except RadixFactorError as error:
        # A mis-specified --radices schedule is a configuration error, not a
        # crash: report it machine-readably on its own exit code.
        print(json.dumps(error.as_dict(), indent=2, sort_keys=True))
        return EXIT_RADIX_SCHEDULE


if __name__ == "__main__":
    raise SystemExit(main())
