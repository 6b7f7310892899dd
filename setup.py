"""Packaging for the src/-layout ``repro`` distribution.

``repro`` is a namespace package (no top-level ``__init__.py``), so packages
are discovered with ``find_namespace_packages``.  All metadata lives here --
the offline development environment ships setuptools without ``wheel``, and a
plain ``setup.py`` keeps the legacy editable path working there:

    pip install -e . --no-use-pep517      # offline/wheel-less environments
    pip install -e .                      # anywhere else (CI uses this)

Either way the install maps the ``src/`` layout onto ``sys.path``, so neither
CI nor the README needs ``PYTHONPATH=src``.
"""

from setuptools import find_namespace_packages, setup

setup(
    name="repro-insitu-rendering-study",
    version="0.5.0",
    description=(
        "Reproduction of the Larsen et al. in situ rendering performance "
        "study: data-parallel renderers, sort-last compositing, and the "
        "performance-model corpus pipeline"
    ),
    package_dir={"": "src"},
    packages=find_namespace_packages(where="src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
    extras_require={
        # scipy is the tests' oracle for the in-tree non-negative least squares
        # solver (tests/test_regression.py); the library itself needs only numpy.
        "test": ["pytest", "hypothesis", "pytest-benchmark", "scipy"],
    },
)
