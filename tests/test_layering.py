"""The import graph of ``src/repro`` is a DAG with one declared order (DESIGN.md, "Layering").

An ``ast`` walk of the source tree, stdlib only: nothing is imported, so a
cycle cannot hide behind whichever import happened to run first.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"

RENDER, MODEL, BOTH = "render side", "model side", "both sides"

#: The declared order, lowest layer first: a package (or root-level module)
#: imports only from entries listed before its own, and never from the other
#: side.  ``study`` -- the driver and its CLI -- alone sits on top of both.
ORDER = [
    ("util", BOTH),
    ("techniques", BOTH),
    ("dpp", RENDER),
    ("geometry", RENDER),
    ("rendering", RENDER),
    ("runtime", RENDER),
    ("simulations", RENDER),
    ("compositing", RENDER),
    ("insitu", RENDER),
    ("machines", MODEL),
    ("modeling", MODEL),
    ("reporting", MODEL),
    ("serving", MODEL),
    ("serve", MODEL),
    ("study", BOTH),
]

#: Root-level modules every layer may read; they import nothing from ``repro``.
CONTRACT_MODULES = ("techniques",)

#: The one import allowed inside a function: the optional JAX device loads
#: its adapter (and ``jax``) on first use.
LAZY_IMPORTS = {("repro.dpp.device", "repro.dpp.backends.jax_device")}


@pytest.fixture(scope="module")
def imports():
    """Every ``repro`` import in the tree: ``(importer, imported, line, inside_function)``."""
    found = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        parts = ("repro", *path.relative_to(PACKAGE_ROOT).with_suffix("").parts)
        package = parts[:-1]
        if parts[-1] == "__init__":
            parts = package
        importer = ".".join(parts)

        def visit(node, inside_function):
            for child in ast.iter_child_nodes(node):
                targets = []
                if isinstance(child, ast.Import):
                    targets = [alias.name for alias in child.names]
                elif isinstance(child, ast.ImportFrom):
                    base = ".".join(package[: len(package) - child.level + 1]) if child.level else ""
                    module = ".".join(filter(None, (base, child.module)))
                    if module == "repro":  # ``from repro import dpp``
                        targets = [f"repro.{alias.name}" for alias in child.names]
                    else:
                        targets = [module]
                for target in targets:
                    if target.split(".")[0] == "repro":
                        found.append((importer, target, child.lineno, inside_function))
                visit(
                    child,
                    inside_function
                    or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)),
                )

        visit(ast.parse(path.read_text(encoding="utf-8")), False)
    return found


def _layer(module: str) -> str | None:
    """``repro.study.cli`` -> ``study``; the bare namespace ``repro`` holds no code."""
    return module.split(".")[1] if "." in module else None


def test_every_package_has_a_place_in_the_order():
    on_disk = {path.stem for path in PACKAGE_ROOT.iterdir() if path.suffix == ".py" or path.is_dir()}
    on_disk.discard("__pycache__")
    assert on_disk == {name for name, _ in ORDER}
    assert len(ORDER) == len(dict(ORDER))


def test_cross_package_imports_point_strictly_down_the_order(imports):
    position = {name: index for index, (name, _) in enumerate(ORDER)}
    side = dict(ORDER)
    violations = []
    for importer, imported, line, _ in imports:
        upper, lower = _layer(importer), _layer(imported)
        if lower is None or upper == lower:
            continue
        if position[lower] >= position[upper]:
            violations.append(f"{importer}:{line} imports {imported}: {lower} is not below {upper}")
        elif BOTH not in (side[upper], side[lower]) and side[upper] != side[lower]:
            violations.append(
                f"{importer}:{line} imports {imported}: the {side[upper]} imports the {side[lower]}"
            )
    assert violations == []


def test_no_repro_import_hides_inside_a_function(imports):
    lazy = {(importer, imported) for importer, imported, _, inside in imports if inside}
    assert lazy == LAZY_IMPORTS


def test_contract_modules_import_nothing_from_repro(imports):
    contract = {f"repro.{name}" for name in CONTRACT_MODULES}
    assert [entry for entry in imports if entry[0] in contract] == []
    assert all((PACKAGE_ROOT / f"{name}.py").is_file() for name in CONTRACT_MODULES)
