"""The example scripts must at least import: nothing else loads them."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_loads(path):
    # ``run_name`` is not "__main__", so the module body (imports, constants,
    # function definitions) executes and ``main()`` does not.
    namespace = runpy.run_path(str(path), run_name="not_main")
    assert callable(namespace["main"])
