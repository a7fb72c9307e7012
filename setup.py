"""The package's only build metadata: name, version, dependencies, `src/` layout.

Installing is optional — everything runs with `PYTHONPATH=src` from the repo
root.  `pip install -e . --no-build-isolation --no-use-pep517` (or a plain
`python setup.py develop`) installs it offline, without the `wheel` package.
The version is kept in step with `src/repro/version.py` by hand.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "R-TOSS: semi-structured (pattern-based) pruning framework for real-time "
        "object detectors — full reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
