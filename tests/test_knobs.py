"""Every defaulted parameter of a ``src/`` function is passed by some call.

A parameter that no call in ``src/``, ``perfbench/`` or ``tests/`` passes
is a knob nobody turns: it should be a constant or be deleted.  Calls are
matched by the called name (``f(...)`` or ``obj.f(...)``); a class call
``C(...)`` stands for ``C.__init__``.  A call that spreads ``*args`` or
``**kwargs`` counts as passing every defaulted parameter.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CALLERS = [SRC, ROOT / "perfbench", ROOT / "tests"]


def defaulted_params(tree: ast.AST):
    """(called name, where, positional index or None, parameter) per default.

    The positional index counts the arguments a call writes before the
    parameter, so a method's ``self`` is not counted.
    """
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                is_method = owner is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list
                )
                skip = 1 if is_method and positional else 0
                name = owner.name if child.name == "__init__" and owner is not None else child.name
                where = f"{owner.name}.{child.name}" if owner is not None else child.name
                first = len(positional) - len(a.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    out.append((name, where, i - skip, arg.arg))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        out.append((name, where, None, arg.arg))
                visit(child, None)
            else:
                visit(child, owner)

    visit(tree, None)
    return out


def passed_params(tree: ast.AST) -> dict:
    """Called name -> (most positional arguments, keyword names, spreads)."""
    calls: dict = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        most, keywords, spread = calls.get(name, (0, set(), False))
        spread = spread or any(isinstance(a, ast.Starred) for a in node.args)
        spread = spread or any(k.arg is None for k in node.keywords)
        keywords = keywords | {k.arg for k in node.keywords if k.arg is not None}
        calls[name] = (max(most, len(node.args)), keywords, spread)
    return calls


def unpassed(definitions: list[str], callers: list[str]) -> list[str]:
    calls: dict = {}
    for source in callers:
        for name, (most, keywords, spread) in passed_params(ast.parse(source)).items():
            old = calls.get(name, (0, set(), False))
            calls[name] = (max(old[0], most), old[1] | keywords, old[2] or spread)
    found = []
    for source in definitions:
        for name, where, index, param in defaulted_params(ast.parse(source)):
            most, keywords, spread = calls.get(name, (0, set(), False))
            if spread or param in keywords or (index is not None and index < most):
                continue
            found.append(f"{where}({param})")
    return sorted(set(found))


def test_unpassed_parameters_are_found():
    defs = (
        "def f(a, b=1, *, c=2, d):\n    pass\n"
        "class K:\n    def __init__(self, x=0):\n        pass\n"
        "    def m(self, y=0, z=1):\n        pass\n"
    )
    assert unpassed([defs], ["f(1)\nK()\nk.m(2)\n"]) == ["K.__init__(x)", "K.m(z)", "f(b)", "f(c)"]
    assert unpassed([defs], ["f(1, 2, c=3)\nK(x=1)\nk.m(1, z=2)\n"]) == []
    assert unpassed([defs], ["f(*args)\nK(**kw)\nk.m(*a)\n"]) == []


def test_every_defaulted_parameter_is_passed():
    definitions = [p.read_text() for p in sorted(SRC.rglob("*.py"))]
    callers = [p.read_text() for root in CALLERS for p in sorted(root.rglob("*.py"))]
    found = unpassed(definitions, callers)
    assert not found, "defaulted parameters that no call passes: " + ", ".join(found)
