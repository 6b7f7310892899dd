"""``python -m benchmarks.e2e`` is ``python3 benchmarks/e2e/run.py``."""

from benchmarks.e2e import pin_threads

pin_threads()

from benchmarks.e2e.run import main  # noqa: E402

raise SystemExit(main())
