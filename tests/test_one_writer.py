"""One module spells artifact numbers: only ``artifacts.py`` writes JSON text.

``artifacts`` holds the CSV and JSON writers, so a change to how a file
spells a number is made in one place. Every other module hands it values.
This test parses ``src/`` and names each call to ``json.dump``,
``json.dumps`` or ``orjson.dumps`` outside ``artifacts.py``; reading JSON
(``cli``'s ``json.load`` of a config) is allowed. ``artifacts.py`` itself
imports no ``adamlab`` module, so any module can write through it.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "adamlab")

WRITERS = {("json", "dump"), ("json", "dumps"), ("orjson", "dumps")}


def writer_calls(source: str, filename: str) -> list[str]:
    """``file:line: module.name`` of each call to a JSON text writer in
    source, through its module or through a name imported from it."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name: (node.module, alias.name)
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
            called = (f.value.id, f.attr)
        elif isinstance(f, ast.Name):
            called = imported.get(f.id)
        else:
            continue
        if called in WRITERS:
            found.append(f"{filename}:{node.lineno}: {'.'.join(called)}")
    return found


def adamlab_imports(source: str) -> list[str]:
    """The adamlab modules source imports: relative or by package name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "adamlab"):
            found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "adamlab"]
    return found


def _read(name: str) -> str:
    with open(os.path.join(SRC, name)) as fh:
        return fh.read()


def test_only_artifacts_writes_json_text():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.basename(path)
        if name != "artifacts.py":
            found += writer_calls(_read(name), name)
    assert found == []
    # the allowed module still holds the writers
    assert writer_calls(_read("artifacts.py"), "artifacts.py")


def test_artifacts_imports_no_adamlab_module():
    assert adamlab_imports(_read("artifacts.py")) == []


def test_writer_call_detection():
    source = '''
import json
import orjson
from json import dumps as to_text
from orjson import dumps

json.dump({}, fh)
json.load(fh)
orjson.loads(b"{}")
to_text({})
dumps([])
fh.dumps()
orjson.dumps
'''
    assert writer_calls(source, "m.py") == [
        "m.py:7: json.dump", "m.py:10: json.dumps", "m.py:11: orjson.dumps",
    ]


def test_adamlab_import_detection():
    source = '''
import json
import adamlab.schema
from . import __version__
from .landscapes import to_spec
from adamlab import harness
from numpy import asarray
'''
    assert adamlab_imports(source) == ["adamlab.schema", ".", ".landscapes", "adamlab"]
