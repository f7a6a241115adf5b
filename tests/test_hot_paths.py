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
# ``ndarray.sum``'s Python wrapper, and a CSR row is a view read off a list
# that the data object keeps, not a slice between two numpy scalar reads of
# ``indptr``.
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


# The CSR builders of the sparse data classes check and copy whole arrays.
# Their per-row loops keep only a row's type and shape test: a numpy sort,
# unique or reduction in a loop brings back the per-element pass they replace.
CSR_BUILDERS = {
    "ragged.py": ("csr_from_rows", "csr_checked"),
    "concave.py": ("_feature_rows", "_cluster_rows", "FeatureBasedData.__post_init__",
                   "ClusteredConcaveModularData.__post_init__"),
    "coverage.py": ("_item_csr", "SetCoverData.__post_init__", "ClusteredSetCoverData.__post_init__"),
}
WHOLE_ARRAY_CALLS = {
    "sort", "argsort", "lexsort", "unique", "min", "max", "amin", "amax", "sum", "prod",
    "mean", "any", "all", "reduce", "count_nonzero", "nonzero", "flatnonzero",
}


def per_row_array_passes(tree: ast.AST) -> list[int]:
    """Lines in the body of a ``for`` loop or a comprehension that call a
    function or method named in ``WHOLE_ARRAY_CALLS`` (builtins such as
    ``min(a, b)`` are plain names and pass)."""
    lines = set()
    for loop in ast.walk(tree):
        if isinstance(loop, ast.For):
            body = loop.body + loop.orelse
        elif isinstance(loop, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            body = [loop.elt] + [cond for gen in loop.generators for cond in gen.ifs]
        elif isinstance(loop, ast.DictComp):
            body = [loop.key, loop.value] + [cond for gen in loop.generators for cond in gen.ifs]
        else:
            continue
        for node in (n for part in body for n in ast.walk(part)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in WHOLE_ARRAY_CALLS):
                lines.add(node.lineno)
    return sorted(lines)


def test_per_row_array_passes_are_found():
    source = (
        "def f(rows, y):\n"
        "    for r in np.sort(y):\n"
        "        a = np.asarray(r)\n"
        "        b = np.sort(a)\n"
        "        c = a.min() if min(1, 2) else 0\n"
        "        d = np.add.reduce(a)\n"
        "    e = [np.unique(r) for r in rows if r.size]\n"
        "    g = (r for r in rows if np.any(r))\n"
        "    h = np.sort(y).max()\n"
        "    for r in rows:\n"
        "        pass\n"
        "    else:\n"
        "        k = y.sum()\n"
    )
    assert per_row_array_passes(ast.parse(source)) == [4, 5, 6, 7, 8, 13]


def _function(tree: ast.Module, dotted: str) -> ast.FunctionDef:
    scope = tree
    for name in dotted.split("."):
        scope = next(node for node in scope.body
                     if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name)
    return scope


@pytest.mark.parametrize("path", sorted(CSR_BUILDERS), ids=str)
def test_csr_builders_make_no_per_row_array_pass(path):
    tree = ast.parse((SRC / "functions" / path).read_text())
    for name in CSR_BUILDERS[path]:
        assert per_row_array_passes(_function(tree, name)) == [], name


# Extreme-point chains group entries in linear time (``ragged.stable_order``,
# a 16-bit radix argsort): numpy sorts wider integer keys with a timsort,
# which took most of a sparse-load chain's time.
COMPARISON_SORTS = {"sort", "argsort", "lexsort"}


def sort_calls(tree: ast.AST) -> list[int]:
    """Lines that call a function or method named ``sort``, ``argsort`` or ``lexsort``."""
    return sorted({node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                   and (node.func.attr if isinstance(node.func, ast.Attribute)
                        else getattr(node.func, "id", None)) in COMPARISON_SORTS})


def test_sort_calls_are_found():
    source = (
        "def _chain(self, order):\n"
        "    a = np.argsort(ids, kind='stable')\n"
        "    b = stable_order(ids, self.num_buckets)\n"
        "    ids.sort()\n"
        "    c = sorted(order) + [np.lexsort((a, b))]\n"
        "    d = argsort(a)\n"
    )
    assert sort_calls(ast.parse(source)) == [2, 4, 5, 6]


def test_chain_hooks_make_no_comparison_sort():
    hooks = [(path.name, cls.name, node) for path in FUNCTIONS for cls in ast.parse(path.read_text()).body
             if isinstance(cls, ast.ClassDef) for node in cls.body
             if isinstance(node, ast.FunctionDef) and node.name == "_chain"]
    assert len(hooks) >= 4
    for path, cls, node in hooks:
        assert sort_calls(node) == [], f"{path}: {cls}._chain"


# Building a fresh copy is the same for every class whose constructor takes
# only its data (``SubmodularFunction._spawn``), and ``__repr__`` names the
# class: only the classes built from more than their data spawn their own
# way, and no function class carries a ``name``.
SPAWNERS = ("MixtureFunction", "SubmodularFunction", "ValueOracleFunction")


def zoo_classes(trees) -> list[ast.ClassDef]:
    """``SubmodularFunction`` and every class deriving from it, by base name."""
    classes = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    zoo = {"SubmodularFunction"}
    grown = True
    while grown:
        grown = False
        for node in classes:
            bases = {b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", None) for b in node.bases}
            if node.name not in zoo and bases & zoo:
                zoo.add(node.name)
                grown = True
    return [node for node in classes if node.name in zoo]


def defines(cls: ast.ClassDef, attr: str) -> bool:
    """True when the class body defines ``attr`` as a method or assigns it."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == attr:
            return True
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        if any(isinstance(t, ast.Name) and t.id == attr for t in targets):
            return True
    return False


def test_construction_offenders_are_found():
    source = (
        "class SubmodularFunction(ABC):\n"
        "    name = 'abstract'\n"
        "class A(core.SubmodularFunction):\n"
        "    def _spawn(self): ...\n"
        "class B(A):\n"
        "    name: str = 'b'\n"
        "class C:\n"
        "    name = 'c'\n"
        "    def _spawn(self): ...\n"
    )
    zoo = zoo_classes([ast.parse(source)])
    assert [c.name for c in zoo] == ["SubmodularFunction", "A", "B"]
    assert [c.name for c in zoo if defines(c, "_spawn")] == ["A"]
    assert [c.name for c in zoo if defines(c, "name")] == ["SubmodularFunction", "B"]


def test_function_classes_spawn_one_way_and_carry_no_name():
    zoo = zoo_classes([ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))])
    assert sorted(c.name for c in zoo if defines(c, "_spawn")) == list(SPAWNERS)
    assert [c.name for c in zoo if defines(c, "name")] == []


# Facility location's written scratch starts on a cache line: every array
# that ``__init__`` allocates with ``np.empty`` for scratch comes from
# ``graphs._aligned_empty`` instead.  A misaligned output splits each vector
# store of the gain and chain loops across two lines.
ALIGNED_SCRATCH = ("_block", "_buf", "_zeros")


def scratch_sources(init: ast.FunctionDef) -> tuple[dict, list[int]]:
    """(attribute -> names of the functions called to assign ``self.<attribute>``,
    lines that call ``empty`` or ``empty_like`` directly)."""
    sources, direct = {}, []
    for node in ast.walk(init):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    call = node.value
                    func = call.func if isinstance(call, ast.Call) else None
                    name = (func.attr if isinstance(func, ast.Attribute)
                            else getattr(func, "id", None))
                    sources.setdefault(target.attr, []).append(name)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("empty", "empty_like"):
                direct.append(node.lineno)
    return sources, sorted(direct)


def test_scratch_sources_are_found():
    source = (
        "def __init__(self, data):\n"
        "    self._buf = _aligned_empty(n)\n"
        "    self._block = np.empty((64, n))\n"
        "    self._zeros = self._buf + 0.0\n"
        "    tmp = np.empty_like(self._buf)\n"
        "    self._zeros = _aligned_empty(n)\n"
    )
    sources, direct = scratch_sources(ast.parse(source).body[0])
    assert sources == {"_buf": ["_aligned_empty"], "_block": ["empty"], "_zeros": [None, "_aligned_empty"]}
    assert direct == [3, 5]


def test_facility_location_scratch_is_allocated_aligned():
    tree = ast.parse((SRC / "functions" / "graphs.py").read_text())
    sources, direct = scratch_sources(_function(tree, "FacilityLocationFunction.__init__"))
    assert direct == []
    for name in ALIGNED_SCRATCH:
        assert sources.get(name) == ["_aligned_empty"], name


# The tight upper bounds read their n gains in two batched calls, not one
# public call and one hook call per element.
PER_ELEMENT_READS = {"gain_remove", "gain_singleton"}


def per_element_reads(tree: ast.AST) -> list[int]:
    """Lines that call a method named ``gain_remove`` or ``gain_singleton``."""
    return sorted({node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute) and node.func.attr in PER_ELEMENT_READS})


def test_per_element_reads_are_found():
    source = (
        "def supergradient_grow(F, X):\n"
        "    w = F.gains_remove(inside)\n"
        "    a = F.gain_remove(j)\n"
        "    b = [F.gain_singleton(j) for j in outside]\n"
        "    c = F.gains_singleton(outside) + gain_remove(j)\n"
    )
    assert per_element_reads(ast.parse(source)) == [3, 4]


@pytest.mark.parametrize("name", ["supergradient_grow", "supergradient_shrink"])
def test_supergradients_read_their_gains_in_batches(name):
    tree = ast.parse((SRC / "bounds.py").read_text())
    assert per_element_reads(_function(tree, name)) == []
