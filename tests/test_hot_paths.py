"""No function class and no value-oracle method reads the memo's member list.

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
