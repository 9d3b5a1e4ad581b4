"""Setuptools packaging for the ``repro`` package.

This file is the project's only packaging metadata (there is no
``pyproject.toml``).  It installs the ``src/repro`` tree and the
``repro-eclipse`` console script, e.g. ``pip install -e .``; running the
code in place with ``PYTHONPATH=src`` needs no install at all.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Eclipse: Generalizing kNN and Skyline' (Liu et al., ICDE)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.21"],
    entry_points={"console_scripts": ["repro-eclipse = repro.cli:main"]},
)
