"""One call from a runner's cells to the optimizers: only
``harness.run_cells`` calls ``run_arm`` or ``adam_lockstep``, and only
``run_arm`` calls ``adam_run`` or ``gd_run``.

An experiment hands each of its runs, a cell of an arm (an ``AdamArm`` or a
GD arm), a budget, a seed and ``record_steps``, to ``run_cells``. It runs a
large enough group of Adam cells that share a permutation stream as the
lanes of one ``adam_lockstep`` call, and every other cell through
``run_arm``, which turns the cell into the optimizer's call. A runner that
called an optimizer or ``run_arm`` itself would spell that dispatch a second
time. This test parses ``src/`` and names each other call.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "adamlab")

# each callee and the one function allowed to call it
CALLERS = {
    "adam_run": "harness.py:run_arm",
    "gd_run": "harness.py:run_arm",
    "adam_lockstep": "harness.py:run_cells",
    "run_arm": "harness.py:run_cells",
}
OPTIMIZERS = set(CALLERS)


def optimizer_calls(source: str, filename: str) -> list[str]:
    """``callee@file:Qualified.name:line`` of each call of a name in
    OPTIMIZERS, by name or as a module attribute, in source; a call outside
    any function is named ``<module>``."""
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
                    found.append(f"{name}@{filename}:{scope or '<module>'}:{child.lineno}")
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_only_run_cells_and_run_arm_call_an_optimizer():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            found += optimizer_calls(fh.read(), os.path.basename(path))
    calls = [f.rsplit(":", 1)[0].split("@") for f in found]
    assert [f for f, (callee, caller) in zip(found, calls) if CALLERS[callee] != caller] == []
    # each allowed caller still makes its calls
    assert {callee for callee, _ in calls} == OPTIMIZERS


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
lanes = optimizers.adam_lockstep(None, [0.0], [])
'''
    assert optimizer_calls(source, "m.py") == [
        "adam_run@m.py:run_arm:6", "gd_run@m.py:Runner.run.inner:11", "gd_run@m.py:<module>:14",
        "run_arm@m.py:<module>:16", "adam_lockstep@m.py:<module>:17",
    ]
