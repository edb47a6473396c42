"""Package metadata for ``repro``, the library under ``src/``.

``pip install .`` (or ``pip install -e .`` for development) installs it
with NumPy, its one runtime dependency.  The version is read from
``src/repro/__init__.py`` so it has a single source.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
