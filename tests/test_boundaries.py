"""Module boundaries: a softpc module reads only public names of another,
no function calls itself, and every public function or class has a caller
outside the tests."""

import ast
from pathlib import Path

import softpc

PACKAGE = Path(softpc.__file__).parent
REPO = Path(__file__).resolve().parents[1]


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(path: Path) -> list:
    """``"file:line: module._name"`` for every ``_``-prefixed name that the
    module at ``path`` imports from, or reads off, another softpc module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    own = path.stem
    modules = {}  # local name -> the softpc module it is bound to
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "softpc" and alias.asname and len(parts) == 2:
                    modules[alias.asname] = parts[1]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not (node.level == 1 or (node.level == 0 and module.split(".")[0] == "softpc")):
                continue
            source = module.removeprefix("softpc").lstrip(".")
            for alias in node.names:
                if not source:  # ``from . import estimators``
                    modules[alias.asname or alias.name] = alias.name
                elif source != own and _is_private(alias.name):
                    reads.append((node.lineno, f"{source}.{alias.name}"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not _is_private(node.attr):
            continue
        value = node.value
        if isinstance(value, ast.Name) and modules.get(value.id) not in (None, own):
            reads.append((node.lineno, f"{modules[value.id]}.{node.attr}"))
        elif (isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name)
              and value.value.id == "softpc" and value.attr != own):
            reads.append((node.lineno, f"{value.attr}.{node.attr}"))
    return [f"{path.name}:{line}: {name}" for line, name in sorted(reads)]


def test_no_module_reads_another_modules_private_names():
    reads = [r for path in sorted(PACKAGE.glob("*.py")) for r in private_reads(path)]
    assert reads == [], "private names read across softpc modules:\n" + "\n".join(reads)


def test_guard_sees_each_form_of_private_read(tmp_path):
    source = (
        "from . import estimators\n"
        "from .learner import _steps, Hyperparams\n"
        "from softpc.circuit import _Table\n"
        "import softpc.clustering as cl\n"
        "import softpc.datasets\n"
        "x = estimators._SQRT2 + estimators.EPSILON_W + estimators.__name__\n"
        "y = cl._checked, softpc.datasets._open\n"
    )
    path = tmp_path / "probe.py"
    path.write_text(source, encoding="utf-8")
    assert private_reads(path) == [
        "probe.py:2: learner._steps",
        "probe.py:3: circuit._Table",
        "probe.py:6: estimators._SQRT2",
        "probe.py:7: clustering._checked",
        "probe.py:7: datasets._open",
    ]


def self_calls(path: Path) -> list:
    """``"file:line: name"`` for every function of the module at ``path``
    that calls itself by name: a function through its plain name, a method
    through ``self``, ``cls`` or its class."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owners = ("self", "cls", node.name) if isinstance(node, ast.ClassDef) else None
                for call in (n for n in ast.walk(child) if isinstance(n, ast.Call)):
                    func = call.func
                    if owners is None:
                        hit = isinstance(func, ast.Name) and func.id == child.name
                    else:
                        hit = (isinstance(func, ast.Attribute) and func.attr == child.name
                               and isinstance(func.value, ast.Name) and func.value.id in owners)
                    if hit:
                        found.append(f"{path.name}:{call.lineno}: {prefix}{child.name}")
                        break
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")
    return found


def test_no_function_calls_itself():
    # a learned tree can be thousands of levels deep, and a recursive walk
    # stops at Python's recursion limit, so every walk keeps its own stack
    calls = [c for path in sorted(PACKAGE.glob("*.py")) for c in self_calls(path)]
    assert calls == [], "functions that call themselves:\n" + "\n".join(calls)


def test_guard_sees_each_form_of_self_call(tmp_path):
    source = (
        "import numpy as np\n"
        "def walk(node):\n"
        "    return [walk(c) for c in node]\n"
        "def sum(x):\n"
        "    return np.sum(x)\n"
        "class Tree:\n"
        "    def depth(self):\n"
        "        def inner(n):\n"
        "            return inner(n - 1) if n else 0\n"
        "        return 1 + max(c.depth() for c in self.kids) + inner(2)\n"
        "    def size(self):\n"
        "        return 1 + sum(self.size() for _ in self.kids)\n"
        "    @classmethod\n"
        "    def build(cls, n):\n"
        "        return [Tree.build(n - 1)] if n else []\n"
    )
    path = tmp_path / "probe.py"
    path.write_text(source, encoding="utf-8")
    assert self_calls(path) == [
        "probe.py:3: probe.walk",
        "probe.py:9: probe.Tree.depth.inner",
        "probe.py:12: probe.Tree.size",
        "probe.py:15: probe.Tree.build",
    ]


def unreferenced(package: Path, others) -> list:
    """``"module.name"`` for every public module-level function or class of
    the modules in ``package`` that no code reads by name outside its own
    definition, in those modules or in the files ``others``: as a plain
    name, an attribute, or a string that is the name whole, which
    ``getattr`` or a tracer's patch takes.  An import alone is not a
    reference, nor is a mention in a docstring."""
    defs, uses = [], {}  # uses: name -> [(path, line)]
    for path in sorted(package.glob("*.py")) + sorted(others):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.parent == package:
            defs += [(path, node) for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                     and not node.name.startswith("_")]
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.value if isinstance(node, ast.Constant) and isinstance(node.value, str)
                    else None)
            if name is not None:
                uses.setdefault(name, []).append((path, node.lineno))
    return [f"{path.stem}.{node.name}" for path, node in defs
            if not any(not (at == path and node.lineno <= line <= node.end_lineno)
                       for at, line in uses.get(node.name, ()))]


# acceptance criteria call it, against the manifest bundled with the package
TEST_ONLY = {"datasets.check_manifest"}


def test_every_public_function_and_class_has_a_caller_outside_the_tests():
    # bench/tests and tests/ are tests; the rest of bench/ and demos/ use the API
    others = [*(REPO / "bench").glob("*.py"), *(REPO / "demos").glob("*.py")]
    found = [name for name in unreferenced(PACKAGE, others) if name not in TEST_ONLY]
    assert found == [], "public names that only tests use:\n" + "\n".join(found)


def test_guard_sees_each_unreferenced_name(tmp_path):
    package, demos = tmp_path / "pkg", tmp_path / "demos"
    package.mkdir()
    demos.mkdir()
    (package / "a.py").write_text(
        "def used():\n"
        "    return 1\n"
        "def by_attribute():\n"
        "    return 2\n"
        "def by_demo():\n"
        "    return 3\n"
        "def only_itself(n):\n"
        "    return only_itself(n - 1) if n else 0\n"
        "def imported_only():\n"
        "    return 4\n"
        "def by_string():\n"
        "    return 5\n"
        "def in_docstring():\n"
        "    return 6\n"
        "def _private():\n"
        "    return 7\n"
        "class Lonely:\n"
        "    def copy(self):\n"
        "        return Lonely()\n",
        encoding="utf-8")
    (package / "b.py").write_text(
        "from . import a\n"
        "from .a import imported_only, used\n"
        "x = used() + a.by_attribute() + getattr(a, 'by_string')()\n"
        "def _note():\n"
        "    \"\"\"Not ``in_docstring``.\"\"\"\n",
        encoding="utf-8")
    (demos / "demo.py").write_text("import pkg.a\nprint(pkg.a.by_demo())\n", encoding="utf-8")
    assert unreferenced(package, [demos / "demo.py"]) == [
        "a.only_itself", "a.imported_only", "a.in_docstring", "a.Lonely"]
