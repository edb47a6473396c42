"""Every cross-reference into ``repro`` names something that exists.

Docstrings and comments under ``src/repro`` point at functions, classes,
methods, data, modules, attributes and exceptions with roles such as
``:func:`~repro.runtime.jobs.execute_chunk```, and the Markdown notes
(``docs/*.md`` and the verify skill) name them in code spans such as
```repro.runtime.pool.PersistentPool```.  A rename or a deletion
leaves such a reference stale without failing anything else; this test
imports the target of every role, and of every code span, that names a
``repro.`` path.  Relative targets (``:meth:`~SearchFrontier.offer```)
are not checked.
"""

import dataclasses
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
NOTES = sorted(ROOT.glob("docs/*.md")) + [
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md"
]

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


#: A code span that opens with a dotted ``repro.`` path, which may be
#: followed by call arguments (```repro.runtime.jobs.f(a, b)```).
SPAN = re.compile(r"`(repro(?:\.\w+)+)[^`]*`")


def _note_references():
    refs = set()
    for path in NOTES:
        for match in SPAN.finditer(path.read_text(encoding="utf-8")):
            refs.add((path.relative_to(ROOT).as_posix(), match[1]))
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


NOTE_REFERENCES = _note_references()


def test_note_references_found():
    assert len(NOTE_REFERENCES) > 30


@pytest.mark.parametrize(
    "where,target",
    NOTE_REFERENCES,
    ids=[f"{w}:{t}" for w, t in NOTE_REFERENCES],
)
def test_note_reference_resolves(where, target):
    _resolve(target)
