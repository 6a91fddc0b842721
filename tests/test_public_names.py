"""Every public engine and layer name has a caller in the package itself."""

import ast
from pathlib import Path

import pytest

import nightseg.layers
import nightseg.tensor

PACKAGE = Path(nightseg.tensor.__file__).resolve().parent

# read by the benchmark harness, which the package does not import
USED_OUTSIDE_PACKAGE = {"active_tape"}


def _names_used(source: str, module: str) -> set[str]:
    """Names a package module takes from sibling ``module``: imported with
    ``from .module import name`` or read as ``alias.name`` after
    ``from . import module as alias``."""
    tree = ast.parse(source)
    used, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == module:
                used |= {a.name for a in node.names}
            elif node.module is None:
                aliases |= {a.asname or a.name for a in node.names if a.name == module}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.add(node.attr)
    return used


@pytest.mark.parametrize("module", [nightseg.tensor, nightseg.layers], ids=lambda m: m.__name__)
def test_every_exported_name_has_a_caller_in_the_package(module):
    defining = Path(module.__file__).resolve()
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.resolve() != defining:
            used |= _names_used(path.read_text(encoding="utf-8"), defining.stem)
    unused = sorted(set(module.__all__) - used - USED_OUTSIDE_PACKAGE)
    assert not unused, f"{module.__name__} exports names nothing in the package uses: {unused}"


def test_only_the_tape_decides_whether_a_node_runs():
    """Backward closures receive their gradient; no op reads a ``.grad`` to
    skip itself. Only ``Tape.run`` (the skip) and ``_accumulate`` (the sum)
    read one."""
    tree = ast.parse(Path(nightseg.tensor.__file__).read_text(encoding="utf-8"))
    readers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               and any(isinstance(n, ast.Attribute) and n.attr == "grad"
                       and isinstance(n.ctx, ast.Load) for n in ast.walk(fn))}
    assert readers == {"run", "_accumulate"}   # Tape.run and _accumulate
