"""The synchronous serving core: canonical configs, result cache, vectorized groups.

Everything request-shaped funnels through :meth:`ServingCore.predict_canonical`
-- the HTTP server's micro-batch flush and the ``python -m repro.study
predict`` CLI alike -- so there is exactly one request path to keep
bit-identical to :meth:`Predictor.predict_configurations
<repro.reporting.predictor.Predictor.predict_configurations>`:

* :func:`canonical_config` validates one user-facing configuration dict and
  reduces it to a hashable canonical tuple (defaults filled, types pinned).
  The tuple *is* the config hash: equal tuples are equal queries.  Render
  counts must lie in ``[1, 2**53)``, where float64 holds every integer
  exactly and the mapping stays finite.
* :func:`canonical_configs` is the same function over a batch, read by
  column: each key's column is checked once (types as a set, range by
  ``min``/``max``, defaults filled once) and zipped into the same tuples.
  A batch with anything the columns cannot vouch for -- a non-dict, a
  compositing row, a count that is not a plain ``int``, a bad name -- falls
  back to :func:`canonical_config` row by row, so every error is the
  per-row one.  :meth:`ServingCore.predict_rows` takes this path; the
  server canonicalizes each request as it arrives, one dict at a time.
* :class:`LRUCache` is the result cache, read and written one batch of keys
  per call at O(1) a key.  Keys are ``(models digest, canonical config,
  sigmas)``: the digest is the sha256 of the file's bytes, so it also fixes
  the schema, and a hot reload of ``models.json`` invalidates by construction
  -- stale entries can never be served, they simply stop being referenced
  and age out.
* :class:`ModelHandle` is an immutable snapshot of one loaded ``models.json``
  (predictor + content digest + the set of renderer slices).  Hot reload
  builds a new handle and swaps it with a single attribute assignment; any
  batch that captured the old handle keeps serving it to completion, so every
  response in a batch is stamped with the digest that actually produced it.

The misses of a batch are predicted by column too: a batch of one model
slice is recognised from its columns, and each slice's counts become one
float64 block for one vectorized predictor call.  Per-row Python work is
left only where the output is rows: cache keys, result tuples and echoes.

Cached values hold only the numeric results ``(seconds, lower, upper,
residual_std)``; the config echo in a response row always comes from the
incoming request, so two configs that canonicalize identically but spell
extra keys differently still get faithful echoes.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain, repeat
from math import isfinite
from operator import itemgetter
from pathlib import Path

import numpy as np

from repro.modeling.features import SAMPLES_IN_DEPTH
from repro.reporting.predictor import DEFAULT_INTERVAL_SIGMAS, Predictor
from repro.reporting.suite import MODELS_SCHEMA_VERSION, ModelSuite
from repro.techniques import TECHNIQUES, get_technique

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "RENDER_DEFAULTS",
    "ServingError",
    "canonical_config",
    "canonical_configs",
    "LRUCache",
    "ModelHandle",
    "ServingCore",
]

#: Maximum number of cached prediction results of a core built without a
#: ``cache_size`` (the server's); read at call time.
DEFAULT_CACHE_SIZE = 4096

#: Defaults filled into render configurations (and the ``predict`` CLI's flag defaults).
RENDER_DEFAULTS = {
    "num_tasks": 32,
    "cells_per_task": 200,
    "image_width": 1024,
    "image_height": 1024,
    "samples_in_depth": SAMPLES_IN_DEPTH,
    "include_build": True,
}

#: Render counts and both compositing inputs must stay below this: every
#: integer under ``2**53`` is exact in float64, and predictions from such
#: inputs stay finite (``10**200`` cells per task overflow the mapping to
#: ``inf``, which is not JSON; Eq. 5.5 at ``1e308`` active pixels gives
#: seconds near ``-3e301``).
_COUNT_LIMIT = 2**53

#: The count keys of a render configuration, in canonical-tuple order.
_RENDER_COUNTS = ("num_tasks", "cells_per_task", "image_width", "image_height", "samples_in_depth")


class ServingError(Exception):
    """A structured request failure (JSON error payload + machine-readable code)."""

    def __init__(self, code: str, message: str, **detail) -> None:
        super().__init__(message)
        self.code = code
        self.detail = detail

    def payload(self) -> dict:
        """The JSON error object clients (and the CLI) receive."""
        error = {"code": self.code, "message": str(self)}
        error.update(self.detail)
        return {"error": error}


def _number(value, what: str, kind: type, minimum: int = 0):
    """``kind(value)`` when that is a finite number ``>= minimum``, else a structured error.

    JSON carries ``1e999`` (parsed to ``inf``) and ``NaN``: ``int(inf)`` raises
    ``OverflowError``, and a ``nan`` would be served as non-JSON output under a
    cache key that never equals itself.  A count (``kind`` is ``int``) must
    already be integral -- a JSON integer or a float such as ``8.0`` -- since
    ``int()`` would serve ``8.5``, ``true`` or ``"8"`` as a different query.
    """
    try:
        if kind is int and not (type(value) is int or isinstance(value, float) and value.is_integer()):
            raise ValueError(value)
        number = kind(value)
        if isfinite(number) and number >= minimum:
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise ServingError(
        "invalid-configuration",
        f"{what!r} must be a finite {kind.__name__} >= {minimum}, got {value!r}",
    )


def _below_limit(value, key: str, kind: type, minimum: int):
    """:func:`_number` of ``value`` that is also below :data:`_COUNT_LIMIT`."""
    number = _number(value, key, kind, minimum)
    if number >= _COUNT_LIMIT:
        raise ServingError("invalid-configuration", f"{key!r} must be below 2**53, got {value!r}")
    return number


def _positive_int(config: dict, key: str) -> int:
    value = config.get(key, RENDER_DEFAULTS[key])
    if type(value) is int and 0 < value < _COUNT_LIMIT:
        return value
    return _below_limit(value, key, int, 1)


def canonical_config(config: dict) -> tuple:
    """Validate one configuration dict and reduce it to its canonical tuple.

    Render configurations canonicalize to ``("render", architecture,
    technique, num_tasks, cells_per_task, image_width, image_height,
    samples_in_depth, include_build)``; Eq. 5.5 queries to ``("compositing",
    average_active_pixels, pixels)``.  The tuple is the cache-key identity of
    the query: two dicts spelling the same configuration (defaults implicit
    or explicit, extra annotation keys, int-vs-float spellings) canonicalize
    identically.
    """
    if not isinstance(config, dict):
        raise ServingError(
            "invalid-configuration", f"each configuration must be a JSON object, got {type(config).__name__}"
        )
    technique = config.get("technique")
    if technique == "compositing":
        missing = [key for key in ("average_active_pixels", "pixels") if key not in config]
        if missing:
            raise ServingError(
                "invalid-configuration",
                "compositing configurations need 'average_active_pixels' and 'pixels' keys",
                missing=missing,
            )
        return (
            "compositing",
            _below_limit(config["average_active_pixels"], "average_active_pixels", float, 0),
            _below_limit(config["pixels"], "pixels", int, 0),
        )
    try:
        get_technique(technique)
    except ValueError as error:
        raise ServingError("invalid-configuration", f"{error}, compositing") from None
    architecture = config.get("architecture")
    if not isinstance(architecture, str) or not architecture:
        raise ServingError("invalid-configuration", "configurations need a non-empty 'architecture'")
    include_build = config.get("include_build", RENDER_DEFAULTS["include_build"])
    if not isinstance(include_build, bool):
        # bool("false") is True: a string would silently include the build time.
        raise ServingError(
            "invalid-configuration",
            f"configuration key 'include_build' must be true or false, got {include_build!r}",
        )
    return (
        "render",
        architecture,
        technique,
        _positive_int(config, "num_tasks"),
        _positive_int(config, "cells_per_task"),
        _positive_int(config, "image_width"),
        _positive_int(config, "image_height"),
        _positive_int(config, "samples_in_depth"),
        include_build,
    )


def canonical_configs(configs: list) -> list[tuple]:
    """``[canonical_config(config) for config in configs]``, reading each key's column once.

    A batch of plain render dicts is checked a column at a time: a column's
    types as one set, its counts' range by one ``min`` and ``max``.  A key
    that no row sets is its default repeated, filled once and not checked.
    On any doubt -- a non-dict, a compositing row, a count that is not an
    ``int`` in ``[1, 2**53)``, a bad name -- the batch goes row by row through
    :func:`canonical_config`, so the first error, its code and its message
    are the per-row ones.
    """
    canon = _render_columns(configs)
    return [canonical_config(config) for config in configs] if canon is None else canon


def _column(configs: list[dict], key: str) -> list | None:
    """Each row's ``key``, its default where a row leaves it out; ``None`` when no row sets it."""
    try:
        return [config[key] for config in configs]
    except KeyError:
        if not any(map(dict.__contains__, configs, repeat(key))):
            return None
        default = RENDER_DEFAULTS.get(key)
        return [config.get(key, default) for config in configs]


def _render_columns(configs: list) -> list[tuple] | None:
    """The canonical tuples of a batch whose every column passes whole, else ``None``."""
    if set(map(type, configs)) != {dict}:
        return None
    techniques = _column(configs, "technique")
    try:
        if techniques is None or not TECHNIQUES.keys() >= set(techniques):  # nor is "compositing"
            return None
    except TypeError:  # an unhashable technique
        return None
    architectures = _column(configs, "architecture")
    if architectures is None or set(map(type, architectures)) != {str} or not all(architectures):
        return None
    builds = _column(configs, "include_build")
    if builds is None:
        builds = [RENDER_DEFAULTS["include_build"]] * len(configs)
    elif set(map(type, builds)) != {bool}:
        return None
    counts = []
    for key in _RENDER_COUNTS:
        column = _column(configs, key)
        if column is None:
            column = [RENDER_DEFAULTS[key]] * len(configs)
        elif set(map(type, column)) != {int} or min(column) < 1 or max(column) >= _COUNT_LIMIT:
            return None
        counts.append(column)
    return list(zip(repeat("render"), architectures, techniques, *counts, builds))


def _slices(canon: list[tuple], indices: list[int]) -> dict[tuple, list[int]]:
    """``indices`` into ``canon`` by model slice, slices in order of first appearance.

    A render slice is ``(architecture, technique, include_build)``; every
    compositing row falls in the one ``("compositing",)`` slice.  A batch of
    one render slice (a CLI or sweep call) is told from its columns; only a
    batch that mixes slices (a server flush) is grouped row by row.
    """
    rows = [canon[index] for index in indices]
    if set(map(itemgetter(0), rows)) == {"render"} and all(
        len(set(map(itemgetter(field), rows))) == 1 for field in (1, 2, 8)
    ):
        first = rows[0]
        return {(first[1], first[2], first[8]): indices}
    groups: dict[tuple, list[int]] = {}
    for index, row in zip(indices, rows):
        group = ("compositing",) if row[0] == "compositing" else (row[1], row[2], row[8])
        groups.setdefault(group, []).append(index)
    return groups


def _block(rows: list[tuple], fields, dtype) -> np.ndarray:
    """``rows``' ``fields`` as one ``(len(fields), len(rows))`` array, read a field at a time."""
    columns = chain.from_iterable(map(itemgetter(field), rows) for field in fields)
    return np.fromiter(columns, dtype, len(fields) * len(rows)).reshape(len(fields), len(rows))


class LRUCache:
    """A counting LRU result cache; ``maxsize <= 0`` disables caching entirely.

    Built on an ``OrderedDict`` so that every operation is O(1): evicting the
    front of a plain dict with ``next(iter(...))`` first walks the deleted
    slots that earlier evictions left there, so under churn each put costs
    5-10x what it costs while the cache fills.  Both methods take a batch of
    keys and act exactly as one call per key, in order.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = int(maxsize)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get_many(self, keys: list) -> list:
        """The cached value per key, ``None`` per miss (values are never ``None``).

        Each hit moves its key to the MRU end.
        """
        values = list(map(self._data.get, keys))
        misses = values.count(None)
        if misses < len(values):
            refresh = self._data.move_to_end
            for key, value in zip(keys, values):
                if value is not None:
                    refresh(key)
        self.hits += len(values) - misses
        self.misses += misses
        return values

    def put_many(self, keys: list, values: list) -> None:
        """Store ``values[i]`` under ``keys[i]`` at the MRU end, evicting the LRU entry per overflow.

        One hash per new key: the store itself, told apart from an overwrite
        by the size it leaves.  Only an overwritten key pays a second one, to
        move it to the MRU end.
        """
        if self.maxsize <= 0:
            return
        data = self._data
        maxsize = self.maxsize
        evictions = 0
        for key, value in zip(keys, values):
            size = len(data)
            data[key] = value
            if len(data) == size:
                data.move_to_end(key)
            elif size >= maxsize:
                data.popitem(last=False)
                evictions += 1
        self.evictions += evictions

    def stats(self) -> dict:
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


@dataclass(frozen=True)
class ModelHandle:
    """One immutable loaded ``models.json``: the unit hot reload swaps atomically.

    ``available`` is the set of renderer ``(architecture, technique)`` slices
    that :meth:`missing_slice` checks per request; what a client is shown is
    :meth:`Predictor.available <repro.reporting.predictor.Predictor.available>`,
    which lists the compositing model too.
    """

    predictor: Predictor
    digest: str
    path: str
    generation: int
    available: frozenset

    @classmethod
    def from_bytes(cls, data: bytes, path: str, generation: int = 0) -> "ModelHandle":
        """Build a handle from raw ``models.json`` bytes (the watcher's entry point); ``ValueError``
        naming ``path`` for bytes that are not a suite this code can serve."""
        try:
            suite = ModelSuite.from_payload(json.loads(data))
        except ValueError as error:
            raise ValueError(f"{path}: {error}") from None
        return cls(
            predictor=Predictor(suite),
            digest=hashlib.sha256(data).hexdigest(),
            path=str(path),
            generation=generation,
            available=frozenset(suite.entries),
        )

    @classmethod
    def load(cls, path: str | Path, generation: int = 0) -> "ModelHandle":
        return cls.from_bytes(Path(path).read_bytes(), str(path), generation)

    def missing_slice(self, canon: tuple) -> tuple[str, str] | None:
        """The ``(architecture, technique)`` this handle cannot serve, if any."""
        if canon[0] == "compositing":
            return None if self.predictor.suite.compositing is not None else ("-", "compositing")
        key = (canon[1], canon[2])
        return None if key in self.available else key

    def unknown_model(self, missing: tuple[str, str]) -> ServingError:
        """The ``unknown-model`` error for a slice :meth:`missing_slice` named."""
        return ServingError(
            "unknown-model",
            f"no fitted model for ({missing[0]!r}, {missing[1]!r})",
            architecture=missing[0],
            technique=missing[1],
            available=[list(key) for key in self.predictor.available()],
            models_digest=self.digest,
        )


class ServingCore:
    """Cache + vectorized group execution over an atomically swappable handle."""

    def __init__(self, handle: ModelHandle, cache_size: int | None = None) -> None:
        self._handle = handle
        self.cache = LRUCache(DEFAULT_CACHE_SIZE if cache_size is None else cache_size)
        self.predictions_served = 0

    @classmethod
    def from_path(cls, path: str | Path, cache_size: int | None = None) -> "ServingCore":
        return cls(ModelHandle.load(path), cache_size=cache_size)

    @property
    def handle(self) -> ModelHandle:
        """The current handle; capture it once per batch for torn-read-free serving."""
        return self._handle

    def swap(self, handle: ModelHandle) -> None:
        """Atomically install a new handle (a single attribute assignment)."""
        self._handle = handle

    # -- the request path ----------------------------------------------------------------
    def predict_canonical(
        self, canon: list[tuple], sigmas: float | None = None, handle: ModelHandle | None = None
    ) -> list[tuple[float, float, float, float]]:
        """Serve canonical configs: cache lookups, then one vectorized call per group.

        Returns one ``(seconds, lower, upper, residual_std)`` tuple per input,
        in input order.  Raises :class:`ServingError` (``unknown-model``) when
        the handle cannot serve a referenced slice -- callers that need
        per-request error isolation (the micro-batcher) pre-screen with
        :meth:`ModelHandle.missing_slice`.
        """
        handle = handle or self._handle
        sigmas = DEFAULT_INTERVAL_SIGMAS if sigmas is None else _number(sigmas, "sigmas", float)
        keys = list(zip(repeat(handle.digest), canon, repeat(sigmas)))
        results = self.cache.get_many(keys)
        misses = [index for index, cached in enumerate(results) if cached is None]
        for group, indices in _slices(canon, misses).items():
            batch = self._predict_group(handle, group, [canon[index] for index in indices], sigmas)
            values = list(
                zip(
                    batch.seconds.tolist(),
                    batch.lower.tolist(),
                    batch.upper.tolist(),
                    repeat(float(batch.residual_std)),
                )
            )
            for index, value in zip(indices, values):
                results[index] = value
            self.cache.put_many([keys[index] for index in indices], values)
        self.predictions_served += len(canon)
        return results

    def _predict_group(self, handle: ModelHandle, group: tuple, canon: list[tuple], sigmas: float):
        missing = handle.missing_slice(canon[0])
        if missing is not None:
            raise handle.unknown_model(missing)
        if group[0] == "compositing":
            average_active_pixels, pixels = _block(canon, (1, 2), np.float64)
            return handle.predictor.predict_compositing(average_active_pixels, pixels, sigmas=sigmas)
        # Canonical counts are ints below 2**53: int64, then float64, hold them
        # exactly, and numpy reads an int as int64 without a float per element.
        counts = _block(canon, range(3, 8), np.int64).astype(np.float64)
        num_tasks, cells_per_task, image_width, image_height, samples_in_depth = counts
        architecture, technique, include_build = group
        return handle.predictor.predict_configurations(
            architecture,
            technique,
            num_tasks=num_tasks,
            cells_per_task=cells_per_task,
            image_width=image_width,
            image_height=image_height,
            samples_in_depth=samples_in_depth,
            include_build=include_build,
            sigmas=sigmas,
        )

    def predict_rows(
        self, configs: list[dict], sigmas: float | None = None, handle: ModelHandle | None = None
    ) -> tuple[list[dict], dict]:
        """The CLI-facing request path: config dicts in, echo-carrying rows out.

        Each row is the input configuration plus ``seconds``/``lower``/
        ``upper``/``residual_std``; ``meta`` carries the serving digest.  Byte
        determinism contract: the numeric fields of a row depend only on the
        configuration, the handle, and ``sigmas`` -- never on batch
        composition, arrival order, or cache state.
        """
        handle = handle or self._handle
        results = self.predict_canonical(canonical_configs(configs), sigmas=sigmas, handle=handle)
        rows = [
            dict(config, seconds=seconds, lower=lower, upper=upper, residual_std=residual_std)
            for config, (seconds, lower, upper, residual_std) in zip(configs, results)
        ]
        return rows, {"models_digest": handle.digest, "generation": handle.generation}

    def stats(self) -> dict:
        handle = self._handle
        return {
            "models": {
                "path": handle.path,
                "digest": handle.digest,
                "schema": MODELS_SCHEMA_VERSION,
                "generation": handle.generation,
                "available": [list(key) for key in handle.predictor.available()],
            },
            "cache": self.cache.stats(),
            "predictions_served": self.predictions_served,
        }
