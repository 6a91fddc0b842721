"""Every public name has a reader in the package itself, outside the
verification modules; the engine's and the layers' have a caller in another
module."""

import ast
import functools
import importlib
from pathlib import Path

import pytest

import nightseg.layers
import nightseg.tensor

PACKAGE = Path(nightseg.tensor.__file__).resolve().parent

# read by the benchmark harness, which the package does not import
USED_OUTSIDE_PACKAGE = {"active_tape"}

# the oracles and the finite-difference check: a name only they use exists
# only for verification
VERIFICATION_MODULES = {"selftest.py", "gradcheck.py"}


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
        if path.resolve() != defining and path.name not in VERIFICATION_MODULES:
            used |= _names_used(path.read_text(encoding="utf-8"), defining.stem)
    unused = sorted(set(module.__all__) - used - USED_OUTSIDE_PACKAGE)
    assert not unused, f"{module.__name__} exports names nothing in the package uses: {unused}"


# oracles kept beside the transforms they check; only the verification
# modules and the tests call them
ORACLES = {"fourier.dft2d_bruteforce", "fourier.idft2d_bruteforce"}

# every package module that exports names for the package to use
EXPORTING = sorted(p.stem for p in PACKAGE.glob("*.py")
                   if p.name != "__init__.py" and p.name not in VERIFICATION_MODULES)


@functools.cache
def _names_read_in_package() -> frozenset[str]:
    """Every name a package module outside ``__init__`` and the verification
    modules reads, bare or as an attribute, or imports."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py" or path.name in VERIFICATION_MODULES:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names |= {a.name for a in node.names}
    return frozenset(names)


@pytest.mark.parametrize("stem", EXPORTING)
def test_every_export_is_read_in_the_package(stem):
    """A name in a module's ``__all__`` is read somewhere in the package,
    its own module included; a name only the tests or the verification
    modules read is not."""
    used = _names_read_in_package()
    exported = importlib.import_module(f"nightseg.{stem}").__all__
    unused = sorted(n for n in exported if n not in used and f"{stem}.{n}" not in ORACLES)
    assert not unused, f"nightseg.{stem} exports names nothing in the package reads: {unused}"


def test_only_the_tape_decides_whether_a_node_runs():
    """Backward closures receive their gradient; no op reads a ``.grad`` to
    skip itself. Only ``Tape.run`` (the skip) and ``_accumulate`` (the sum)
    read one."""
    tree = ast.parse(Path(nightseg.tensor.__file__).read_text(encoding="utf-8"))
    readers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               and any(isinstance(n, ast.Attribute) and n.attr == "grad"
                       and isinstance(n.ctx, ast.Load) for n in ast.walk(fn))}
    assert readers == {"run", "_accumulate"}   # Tape.run and _accumulate


def test_only_module_defines_parameters():
    """One parameter protocol: every layer lists its weights through the
    attribute walk of ``layers.Module``, never by a ``parameters`` of its own."""
    definers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        definers |= {f"{path.stem}.{cls.name}" for cls in ast.walk(tree)
                     if isinstance(cls, ast.ClassDef)
                     and any(isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                             and fn.name == "parameters" for fn in cls.body)}
    assert definers == {"layers.Module"}


def test_no_module_reads_the_environment():
    """Run settings live only in the config schema: no package module reads
    ``os.environ`` or calls ``os.getenv``."""
    env = {"environ", "getenv"}
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if ((isinstance(node, ast.Attribute) and node.attr in env)
                    or (isinstance(node, ast.ImportFrom) and node.module == "os"
                        and any(a.name in env for a in node.names))):
                readers.add(path.name)
    assert not readers, f"modules reading the environment: {sorted(readers)}"
