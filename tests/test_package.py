"""The package's public names, and its modules' imports."""

import ast
from pathlib import Path

import pytest

import steinbn
import steinbn.nn


def test_every_public_name_resolves():
    # a name moved between modules must not leave a stale export behind
    missing = [name for name in steinbn.__all__ if not hasattr(steinbn, name)]
    assert missing == []
    assert len(set(steinbn.__all__)) == len(steinbn.__all__)


def test_batchnorm_is_the_layer_class():
    assert steinbn.BatchNorm is steinbn.nn.BatchNorm


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


# __init__.py is exempt: its imports are the package's re-exports
_MODULES = sorted(p for p in Path(steinbn.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", sorted(p for p in Path(steinbn.__file__).parent.glob("*.py") if p.name != "tensor.py"),
                         ids=lambda p: p.name)
def test_value_kinds_are_named_only_in_tensor(path):
    # tensor.is_int and tensor.is_real are the one definition of an integer
    # and a real number; a module naming numbers.Integral or numbers.Real
    # writes its own, which may take a bool
    tree = ast.parse(path.read_text())
    named = [f"line {node.lineno}: numbers.{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("Integral", "Real")
             and isinstance(node.value, ast.Name) and node.value.id == "numbers"]
    named += [f"line {node.lineno}: from numbers import {alias.name}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "numbers"
              for alias in node.names if alias.name in ("Integral", "Real")]
    assert named == []


def _unread_parameters(tree: ast.Module) -> list[str]:
    """Parameters of functions, methods and lambdas (self and cls aside) that
    no name in their body reads."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for part in body for n in ast.walk(part)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "lambda")
        unread += [f"line {node.lineno}: {name}({p.arg})" for p in params
                   if p.arg not in read and p.arg not in ("self", "cls")]
    return unread


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_unread_parameter(path):
    # a parameter nothing reads tells its callers a promise the code does not keep
    assert _unread_parameters(ast.parse(path.read_text())) == []


def _module_constants(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each name a module's top level assigns."""
    found = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        found += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return found


def _orphaned_private_defs(trees: dict[str, ast.Module]) -> list[str]:
    """Private functions, methods, classes and module constants (dunders
    aside) that no read of a name, attribute or import in any of the
    modules refers to."""
    defs, used = [], set()
    for module, tree in trees.items():
        defs += [(module, line, name) for line, name in _module_constants(tree)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((module, node.lineno, node.name))
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.split(".")[-1])
    return [f"{module} line {line}: {name}" for module, line, name in defs
            if name.startswith("_") and not name.endswith("__") and name not in used]


def test_no_orphaned_private_helper():
    # a deletion can leave behind a helper that nothing calls, or a private
    # constant that nothing reads, any more
    paths = Path(steinbn.__file__).parent.glob("*.py")
    assert _orphaned_private_defs({p.name: ast.parse(p.read_text()) for p in paths}) == []


def test_orphan_check_sees_a_private_constant_nothing_reads():
    # the check reads a constant's own assignment as no use of it
    tree = ast.parse("_READ = 1\n_UNREAD: int = 2\n__all__ = []\nprint(_READ)\n")
    assert _orphaned_private_defs({"m.py": tree}) == ["m.py line 2: _UNREAD"]


def _test_only_public_methods(defs: dict[str, ast.Module], callers: list[ast.Module]) -> list[str]:
    """Public methods and properties of the public classes in ``defs`` whose
    name no attribute in ``callers`` names.

    The match is by name alone, so a method that shares its name with one
    the callers do read still passes.
    """
    named = {n.attr for tree in callers for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    found = []
    for module, tree in defs.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            found += [f"{module} line {fn.lineno}: {cls.name}.{fn.name}" for fn in cls.body
                      if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not fn.name.startswith("_") and fn.name not in named]
    return found


def test_no_public_method_only_tests_call():
    # public surface that only tests reach is code the lab keeps for no run;
    # private classes are exempt (argparse calls _Parser.error itself)
    bench = Path(__file__).parents[1] / "bench"
    defs = {p.name: ast.parse(p.read_text()) for p in Path(steinbn.__file__).parent.glob("*.py")}
    callers = [*defs.values(), *(ast.parse(p.read_text()) for p in bench.glob("*.py"))]
    assert _test_only_public_methods(defs, callers) == []


def _reads_outside(trees: dict[str, ast.Module], names: set[str], owner: str) -> list[str]:
    """Reads of ``names``, as a name, an attribute or an import, outside every
    function called ``owner``."""
    inside = {id(node) for tree in trees.values() for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == owner for node in ast.walk(fn)}
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if id(node) in inside or isinstance(getattr(node, "ctx", None), ast.Store):
                continue
            field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}.get(type(node))
            if field and getattr(node, field) in names:
                found.append(f"{module} line {node.lineno}: {getattr(node, field)}")
    return found


def test_clean_and_noise_draws_are_read_only_by_the_grid_scorer():
    # Theorems 1 and 2 and the key inequality draw through risk._score_grid;
    # a new check on those draws adds a score to it, not another draw loop
    trees = {p.name: ast.parse(p.read_text()) for p in Path(steinbn.__file__).parent.glob("*.py")}
    tags = {"_TAG_CLEAN", "_TAG_NOISE"}
    assert _reads_outside(trees, tags, "_score_grid") == []
    (grid,) = [fn for fn in ast.walk(trees["risk.py"])
               if isinstance(fn, ast.FunctionDef) and fn.name == "_score_grid"]
    assert {node.id for node in ast.walk(grid) if isinstance(node, ast.Name)} >= tags
