"""Whole-file writes that a crash cannot truncate.

:func:`atomic_write` writes into a temporary file next to the target and
renames it over the target only once the write has finished, so a reader --
or a process interrupted mid-write -- finds the previous complete file or the
new one, never a prefix.  Every file the study and the report tree write
whole (corpora, ``models.json``, the report's tables and figures, the
``BENCH_learning.json`` ledger) goes through it.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Iterator, TextIO

__all__ = ["atomic_write"]


@contextlib.contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """Open a UTF-8 text handle whose contents replace ``path`` when the block exits cleanly.

    The parent directory is created if needed.  If the block raises, the
    temporary file is removed and ``path`` keeps its previous contents.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
