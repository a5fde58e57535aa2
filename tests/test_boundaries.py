"""Module boundaries: a softpc module reads only public names of another."""

import ast
from pathlib import Path

import softpc

PACKAGE = Path(softpc.__file__).parent


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
