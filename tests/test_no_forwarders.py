"""No function in the package only forwards a call.

A function or method whose body, after its docstring, is one ``return`` of a
call that passes only its own parameters adds a name and nothing else:
callers can call the target. The allowlist names the ones that stay, each
with its reason.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "adamlab")

ALLOWED = {
    # the benchmark's traced leaf landscapes.component_grad (perfbench/op.py
    # LEAF_TARGETS) counts the component gradients outside the Adam loop
    "landscapes.py:FiniteSumObjective.component_grad",
}


def _params(fn: ast.FunctionDef) -> set[str]:
    a = fn.args
    names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
    names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    return set(names)


def _is_forwarder(fn: ast.FunctionDef) -> bool:
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    if len(body) != 1 or not isinstance(body[0], ast.Return) or not isinstance(body[0].value, ast.Call):
        return False
    call, params = body[0].value, _params(fn)
    args = [a.value if isinstance(a, ast.Starred) else a for a in call.args]
    args += [k.value for k in call.keywords]
    return all(isinstance(a, ast.Name) and a.id in params for a in args)


def forwarders(source: str, filename: str) -> list[str]:
    """``file:Qualified.name`` of each forwarding function in source."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_forwarder(child):
                    found.append(f"{filename}:{prefix}{child.name}")
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def test_no_function_only_forwards_a_call():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            found += forwarders(fh.read(), os.path.basename(path))
    assert sorted(set(found) - ALLOWED) == []
    # an allowlist entry whose function is gone or changed is stale
    assert sorted(ALLOWED - set(found)) == []


def test_forwarder_detection():
    source = '''
def keep(a, b):
    """Docstring."""
    return target(a, b)

def star(*args, **kwargs):
    return target(*args, **kwargs)

class C:
    def method(self, j):
        return self.fn(j)

    def to_dict(self):
        return asdict(self)

def works(a):
    return target(a, 0)

def two(a):
    check(a)
    return target(a)

def attr(a):
    return target(a.x)

def not_a_call(a):
    return a
'''
    assert forwarders(source, "m.py") == ["m.py:keep", "m.py:star", "m.py:C.method", "m.py:C.to_dict"]
