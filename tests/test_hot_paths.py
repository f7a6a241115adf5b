"""No function class and no value-oracle method reads the memo's member list,
and the few-entry scalar gain hooks take no slow scalar reads.

Hot paths read the memo's intp index (``to_indices``, a value-oracle probe's
slice) instead of rebuilding an array from the Python list.  Appending to the
list stays allowed: it is how ``update`` grows the memo.  Algorithms in
``maximize.py`` may still iterate ``members``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "submemo"
FUNCTIONS = sorted((SRC / "functions").glob("*.py"))


def member_list_reads(tree: ast.AST) -> list[int]:
    """Lines that read ``<...>memo.members`` or ``<...>memo._members``,
    other than to ``append`` to it."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr in ("members", "_members")):
            continue
        owner = node.value
        if not ((isinstance(owner, ast.Attribute) and owner.attr == "memo")
                or (isinstance(owner, ast.Name) and owner.id == "memo")):
            continue
        up = parents.get(node)
        if isinstance(up, ast.Attribute) and up.attr == "append":
            continue
        lines.append(node.lineno)
    return lines


def value_oracle_class(tree: ast.Module) -> ast.ClassDef:
    return next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "ValueOracleFunction")


def test_member_list_reads_are_found():
    source = (
        "def f(self, j):\n"
        "    a = self.memo.members.index(j)\n"
        "    memo = self.memo\n"
        "    b = [i for i in memo._members if i != j]\n"
        "    memo._members.append(j)\n"
        "    c = self.memo.to_indices()\n"
        "    d = result.members\n"
    )
    assert member_list_reads(ast.parse(source)) == [2, 4]


@pytest.mark.parametrize("path", FUNCTIONS, ids=lambda p: p.name)
def test_function_classes_read_the_memo_index(path):
    assert member_list_reads(ast.parse(path.read_text())) == [], path.name


def test_value_oracle_methods_read_the_memo_index():
    tree = value_oracle_class(ast.parse((SRC / "core.py").read_text()))
    assert member_list_reads(tree) == []


# The scalar gain hooks that lazy and stochastic greedy call per read: each
# is a handful of numpy calls, on a few entries for the sparse classes, so the
# Python around them shows.  Sums go through ``np.add.reduce``, not
# ``ndarray.sum``'s Python wrapper, and CSR row bounds come from a Python
# list, not two numpy scalar reads of ``indptr``.
SCALAR_HOOKS = {
    "graphs.py": {"FacilityLocationFunction": ("_gain_add", "_gain_remove")},
    "concave.py": {"_SparseLoadFunction": ("_entry", "_gain_add", "_gain_remove")},
    "coverage.py": {"SetCoverData": ("item_slice",), "SetCoverFunction": ("_gain_add", "_gain_remove")},
}


def slow_scalar_reads(tree: ast.AST) -> list[int]:
    """Lines that call a ``.sum()`` method or subscript an ``indptr``/``_indptr``."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "sum"):
            lines.append(node.lineno)
        elif isinstance(node, ast.Subscript):
            owner = node.value
            name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", None)
            if name in ("indptr", "_indptr"):
                lines.append(node.lineno)
    return sorted(set(lines))


def test_slow_scalar_reads_are_found():
    source = (
        "def f(self, j):\n"
        "    a = (x - y).sum()\n"
        "    lo, hi = self._indptr[j], self._indptr[j + 1]\n"
        "    b = data.indptr[j]\n"
        "    c = np.add.reduce(x)\n"
        "    d = self._ptr[j]\n"
        "    e = sum(x)\n"
        "    f = indptr[j + 1]\n"
    )
    assert slow_scalar_reads(ast.parse(source)) == [2, 3, 4, 8]


@pytest.mark.parametrize("path", sorted(SCALAR_HOOKS), ids=str)
def test_scalar_gain_hooks_stay_thin(path):
    tree = ast.parse((SRC / "functions" / path).read_text())
    for cls, hooks in SCALAR_HOOKS[path].items():
        node = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
        methods = {m.name: m for m in node.body if isinstance(m, ast.FunctionDef)}
        for hook in hooks:
            assert slow_scalar_reads(methods[hook]) == [], f"{cls}.{hook}"
