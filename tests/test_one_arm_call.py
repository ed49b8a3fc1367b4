"""One call from an arm to an optimizer: only ``harness.run_arm`` calls
``adam_run`` or ``gd_run``.

An experiment runs each of its arms, an ``AdamArm`` or a GD arm, through
``run_arm``, which turns the arm, a budget and a seed into the optimizer's
call. A runner that called an optimizer itself would spell that dispatch a
second time. This test parses ``src/`` and names each other call.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "adamlab")

OPTIMIZERS = {"adam_run", "gd_run"}
ALLOWED = {"harness.py:run_arm"}


def optimizer_calls(source: str, filename: str) -> list[str]:
    """``file:Qualified.name:line`` of each call of ``adam_run`` or ``gd_run``,
    by name or as a module attribute, in source; a call outside any function
    is named ``<module>``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                fn = child.func
                name = fn.id if isinstance(fn, ast.Name) else fn.attr if isinstance(fn, ast.Attribute) else None
                if name in OPTIMIZERS:
                    found.append(f"{filename}:{scope or '<module>'}:{child.lineno}")
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_only_run_arm_calls_an_optimizer():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            found += optimizer_calls(fh.read(), os.path.basename(path))
    assert [f for f in found if f.rsplit(":", 1)[0] not in ALLOWED] == []
    # the allowed function still holds the rule
    assert {f.rsplit(":", 1)[0] for f in found} == ALLOWED


def test_optimizer_call_detection():
    source = '''
from . import optimizers
from .optimizers import adam_run, gd_run

def run_arm(obj, w0, arm):
    return adam_run(obj, w0, arm)

class Runner:
    def run(self, obj, w0):
        def inner():
            return optimizers.gd_run(obj, w0, 0.1, steps=5)
        return inner()

traj = gd_run(None, [0.0], 0.1, steps=1)
run = adam_run
other = run_arm(None, [0.0], None)
'''
    assert optimizer_calls(source, "m.py") == ["m.py:run_arm:6", "m.py:Runner.run.inner:11", "m.py:<module>:14"]
