"""Every Sphinx cross-reference into ``repro`` names something that exists.

Docstrings and comments under ``src/repro`` point at functions, classes,
methods, data, modules, attributes and exceptions with roles such as
``:func:`~repro.runtime.jobs.execute_chunk```.  A rename or a deletion
leaves such a reference stale without failing anything else; this test
imports the target of every role that names a ``repro.`` path.
Relative targets (``:meth:`~SearchFrontier.offer```) are not checked.
"""

import dataclasses
import importlib
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

ROLE = re.compile(
    r":(?:func|class|meth|data|mod|attr|exc):"
    r"`(?:[^`<]*<)?[~!]?(repro(?:\.\w+)*)>?`"
)


def _references():
    refs = set()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for match in ROLE.finditer(text):
            refs.add((path.relative_to(SRC.parent).as_posix(), match[1]))
    return sorted(refs)


def _resolve(target: str):
    """Import the longest module prefix of ``target``, then walk the
    rest as attributes (a dataclass field counts as an attribute)."""
    parts = target.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        break
    for name in parts[split:]:
        if hasattr(obj, name):
            obj = getattr(obj, name)
        elif dataclasses.is_dataclass(obj) and name in {
            f.name for f in dataclasses.fields(obj)
        }:
            obj = None
        else:
            raise AttributeError(f"{target}: no {name!r} on {obj!r}")
    return obj


REFERENCES = _references()


def test_references_found():
    assert len(REFERENCES) > 100


@pytest.mark.parametrize(
    "where,target", REFERENCES, ids=[f"{w}:{t}" for w, t in REFERENCES]
)
def test_reference_resolves(where, target):
    _resolve(target)
