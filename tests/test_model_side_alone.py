"""The model side runs without the render side (DESIGN.md, "Layering").

A fitted model is evaluated from a *configuration* (Section 5.8): no render,
no composite.  A fresh interpreter with the render side and the driver blocked
serves a ``models.json`` through :class:`ServingCore` and must return the very
floats the offline :class:`Predictor` computes here -- the served == offline
contract, now also proving the serving tier needs no renderer.
"""

from __future__ import annotations

import json
import subprocess
import sys

from repro.modeling.study import StudyConfiguration
from repro.reporting import ModelSuite, Predictor
from repro.study import run_study

#: Packages ``import repro.serving`` must not load.
NOT_ON_THE_MODEL_SIDE = (
    "rendering", "compositing", "simulations", "insitu", "study", "dpp", "geometry", "runtime",
)

CONFIGS = [
    {"architecture": "gpu1-k40m", "technique": technique, "num_tasks": tasks, "cells_per_task": 120,
     "image_width": 640, "image_height": 480, "samples_in_depth": 400, "include_build": build}
    for technique in ("raytrace", "raster", "volume", "volume_unstructured")
    for tasks, build in ((1, True), (64, False))
]

_CHILD = """
import json, sys
sys.path[:] = json.loads(sys.argv[1])
for blocked in ("rendering", "compositing", "simulations", "study"):
    sys.modules["repro." + blocked] = None  # importing it now raises ImportError
from repro.serving import ModelHandle, ServingCore
core = ServingCore(ModelHandle.load(sys.argv[2]))
rows, _ = core.predict_rows(json.loads(sys.argv[3]), sigmas=2.0)
loaded = sorted(name for name, module in sys.modules.items()
                if name.startswith("repro.") and module is not None)
print(json.dumps({"rows": rows, "loaded": loaded}))
"""


def test_serving_with_the_render_side_blocked_equals_the_offline_predictor(tmp_path):
    config = StudyConfiguration(
        architectures=("gpu1-k40m",),
        techniques=("raytrace", "raster", "volume", "volume_unstructured"),
        simulations=("kripke",),
        task_counts=(1, 4),
        samples_per_technique=8,
        seed=21,
    )
    suite = ModelSuite.fit_corpus(run_study(config, include_compositing=False))
    models_path = suite.save(tmp_path / "models.json")

    # The parent's sys.path is passed through, so the child finds ``repro`` the
    # way this process did (PYTHONPATH=src and ``pip install -e`` alike).
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(sys.path), str(models_path), json.dumps(CONFIGS)],
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    served = json.loads(child.stdout)

    predictor = Predictor.load(models_path)
    for config, row in zip(CONFIGS, served["rows"], strict=True):
        query = {key: value for key, value in config.items() if key not in ("architecture", "technique")}
        batch = predictor.predict_configurations(
            config["architecture"], config["technique"], sigmas=2.0, **query
        )
        assert [row["seconds"], row["lower"], row["upper"], row["residual_std"]] == [
            float(batch.seconds[0]), float(batch.lower[0]), float(batch.upper[0]),
            float(batch.residual_std),
        ]  # bit-equal: JSON round-trips a float exactly

    assert "repro.serving.core" in served["loaded"] and "repro.reporting.predictor" in served["loaded"]
    strays = [name for name in served["loaded"] if name.split(".")[1] in NOT_ON_THE_MODEL_SIDE]
    assert strays == []
