"""End-to-end reproduction of the Chapter V modeling workflow.

Run with ``python examples/model_feasibility_study.py``.  The script

1. runs the study sweep (host-measured CPU experiments + synthesized GPU
   experiments at paper scale),
2. fits every single-node model and the compositing model in one
   :class:`~repro.reporting.ModelSuite`,
3. prints Tables 12-17 and Figures 11-15 from the emitters ``python -m
   repro.study report`` writes with -- fits, cross validation, mapping
   validation, the images-in-budget curves and the ray-tracing-versus-
   rasterization grid -- and
4. calibrates a Titan-like machine from a small sample (ten experiments per
   renderer) and prints its Table 15: the 1024-task prediction at scale.

It computes nothing itself: every number comes from those emitters.
"""

from __future__ import annotations

from repro.modeling.study import StudyConfiguration
from repro.reporting import ModelSuite
from repro.reporting.figures import FIGURE_EMITTERS
from repro.reporting.tables import TABLE_EMITTERS, table15_large_scale_prediction
from repro.study import run_study


def main() -> None:
    print("running the study sweep (this renders a few dozen small images)...")
    corpus = run_study(StudyConfiguration(samples_per_technique=10, seed=2016))
    print(f"gathered {len(corpus.records)} rendering experiments "
          f"and {len(corpus.compositing_records)} compositing experiments\n")
    suite = ModelSuite.fit_corpus(corpus)
    for emitter in {**TABLE_EMITTERS, **FIGURE_EMITTERS}.values():
        print(emitter(suite, corpus)[1])

    print("Titan-style calibration: ten experiments per renderer on gpu2-titan-k20\n")
    calibration = run_study(
        StudyConfiguration(
            architectures=("gpu2-titan-k20",), simulations=("cloverleaf",), samples_per_technique=10, seed=41
        ),
        include_compositing=False,
    )
    print(table15_large_scale_prediction(ModelSuite.fit_corpus(calibration), calibration)[1])


if __name__ == "__main__":
    main()
