"""The public API carries no name that only tests use.

Every name crcap exports must be used by the library itself (a
definition plus at least one use in src/crcap, outside __init__.py) or by
a demo or benchmark script; a helper that only the tests call belongs in
tests/oracles.py instead.
"""

import tokenize
from collections import Counter
from pathlib import Path

import crcap

ROOT = Path(__file__).resolve().parent.parent


def _name_counts(paths):
    counts = Counter()
    for path in paths:
        with tokenize.open(path) as fh:
            counts.update(tok.string for tok in tokenize.generate_tokens(fh.readline)
                          if tok.type == tokenize.NAME)
    return counts


def test_every_exported_name_has_a_caller_outside_the_tests():
    package = ROOT / "src" / "crcap"
    in_src = _name_counts(p for p in sorted(package.glob("*.py"))
                          if p.name != "__init__.py")
    in_scripts = _name_counts(sorted((ROOT / "demos").glob("*.py"))
                              + sorted((ROOT / "benchmarks").glob("*.py")))
    exported = [n for n in crcap.__all__ if n != "__version__"]
    assert exported
    assert [n for n in exported if in_src[n] < 2 and in_scripts[n] < 1] == []
