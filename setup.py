"""Packaging metadata.

This repository is developed in an offline environment without the
``wheel`` package, so PEP 517/660 editable installs are unavailable;
``pip install -e .`` uses this shim via the legacy ``setup.py develop``
path, which is why the metadata lives here rather than in a
``pyproject.toml``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_HERE = Path(__file__).parent
_VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (_HERE / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro-pods08-probdb",
    version=_VERSION,
    description=(
        "Probabilistic database engine reproducing Koch, 'Approximating "
        "predicates and expressive queries on probabilistic databases' "
        "(PODS 2008): U-relations, exact and Karp-Luby confidence, "
        "predicate approximation, and the Theorem 6.7 driver behind a "
        "single ProbDB facade"
    ),
    long_description=(
        (_HERE / "README.md").read_text() if (_HERE / "README.md").exists() else ""
    ),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    python_requires=">=3.10",
    packages=find_packages("src"),
    package_dir={"": "src"},
    install_requires=[],
    extras_require={
        # `fast` enables the vectorized batch Monte Carlo backend
        # (confidence/batch.py); without it the engine falls back to the
        # dependency-free pure-Python trial loop.
        "fast": ["numpy"],
        "test": ["pytest", "hypothesis"],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3 :: Only",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Database :: Database Engines/Servers",
        "Topic :: Scientific/Engineering",
    ],
)
