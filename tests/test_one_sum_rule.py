"""One summation rule: only ``landscapes.py`` calls ``math.fsum``.

``math.fsum`` raises where finite terms sum past the float range or where
+inf and -inf meet. ``landscapes._sum`` applies it with an IEEE fallback,
and ``landscapes._fsum`` turns its errors into a config error naming the
parameter; every other module sums through ``_sum``. This test parses
``src/`` and names each other use of ``fsum`` from ``math``.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "adamlab")

ALLOWED = {"landscapes.py"}


def fsum_uses(source: str, filename: str) -> list[str]:
    """``file:line`` of each ``math.fsum`` reference and each import of
    ``fsum`` from ``math`` in source."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "fsum"
                and isinstance(node.value, ast.Name) and node.value.id == "math"):
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "math" and any(
                alias.name in ("fsum", "*") for alias in node.names):
            lines.add(node.lineno)
    return [f"{filename}:{line}" for line in sorted(lines)]


def test_only_landscapes_calls_fsum():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.basename(path)
        if name not in ALLOWED:
            with open(path) as fh:
                found += fsum_uses(fh.read(), name)
    assert found == []
    # the allowed module still holds the rule
    with open(os.path.join(SRC, "landscapes.py")) as fh:
        assert fsum_uses(fh.read(), "landscapes.py")


def test_fsum_use_detection():
    source = '''
import math
from math import fsum
from math import hypot, fsum as add

a = math.fsum([1.0])
b = sum([1.0])
f = math.fsum
c = math.hypot(1.0, 2.0)
'''
    assert fsum_uses(source, "m.py") == ["m.py:3", "m.py:4", "m.py:6", "m.py:8"]
