"""Benchmark harness package.

The ``bench_table*`` / ``bench_fig*`` files regenerate the paper's tables and
figures; the ``perf``-marked floors are same-run ratios
(``python -m pytest benchmarks -m perf``); ``e2e/`` is the end-to-end
benchmark (``python3 benchmarks/e2e/run.py``).  Being a package lets the
scale gate run as a module: ``python -m benchmarks.bench_compositing_scale``.
The ``bench_*.py`` files import helpers from ``common`` via the
``conftest.py`` path hook.
"""
