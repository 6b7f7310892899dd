"""Seeded generation of user-facing prediction configurations.

Shared by the sweeps' prediction stage, the serving workload's request streams
and the serving probes, so every prediction input in the benchmark comes from
``--seed`` through one function.
"""

from __future__ import annotations

import numpy as np

#: The documented default and hold-out seeds; ``golden/digests.json`` covers both.
DEFAULT_SEED = 2016
HOLDOUT_SEED = 90210
PINNED_SEEDS = (DEFAULT_SEED, HOLDOUT_SEED)

TASK_COUNTS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
IMAGE_SIZES = ((256, 256), (512, 512), (1024, 768), (1024, 1024), (1920, 1080), (2048, 2048))

#: A repeat re-sends one of the most recent requests, so that the repeated
#: configuration is still inside the server's 4,096-entry LRU.
REPEAT_WINDOW = 2048


def random_columns(rng: np.random.Generator, count: int) -> dict[str, np.ndarray]:
    """``count`` render configurations as the column arrays ``predict_configurations`` takes."""
    width, height = np.array(IMAGE_SIZES, dtype=np.float64)[rng.integers(0, len(IMAGE_SIZES), count)].T
    return {
        "num_tasks": np.array(TASK_COUNTS, dtype=np.float64)[rng.integers(0, len(TASK_COUNTS), count)],
        "cells_per_task": rng.integers(40, 2000, count).astype(np.float64),
        "image_width": width,
        "image_height": height,
    }


def random_configs(
    rng: np.random.Generator,
    count: int,
    repeat: float,
    slices: list[tuple[str, str]] | None = None,
) -> list[dict]:
    """``count`` configuration dicts; each repeats a recent one with probability ``repeat``.

    ``slices`` are the ``(architecture, technique)`` pairs to draw from; without
    them the configurations carry only the size keys and the caller binds the
    slice.
    """
    columns = {key: column.astype(int).tolist() for key, column in random_columns(rng, count).items()}
    which = rng.integers(0, len(slices), count) if slices else None
    repeats = rng.random(count) < repeat
    back = rng.integers(1, REPEAT_WINDOW + 1, count)
    configs: list[dict] = []
    for index in range(count):
        if repeats[index] and index:
            configs.append(configs[index - min(int(back[index]), index)])
            continue
        config = {key: column[index] for key, column in columns.items()}
        if slices:
            config["architecture"], config["technique"] = slices[which[index]]
        configs.append(config)
    return configs
