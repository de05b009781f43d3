"""Import hygiene of the package: every imported name is used, and the
inner solver reads no solver configuration."""

import ast
import pathlib

import pytest

import meshtv

PACKAGE = pathlib.Path(meshtv.__file__).parent
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imports(tree):
    """(bound name, imported module) of every import in ``tree``, without
    ``from __future__``; a relative module keeps its leading dots."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            prefix = "." * node.level + (f"{node.module}." if node.module else "")
            for alias in node.names:
                yield alias.asname or alias.name, prefix + alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(name for name, _ in _imports(tree) if name not in used)
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def test_admm_reads_no_solver_config():
    # the outer loop hands each subproblem its weights, tolerance and step
    # limit; the inner solver must not reach past them into the config
    tree = ast.parse((PACKAGE / "admm.py").read_text(encoding="utf-8"))
    modules = [module for _, module in _imports(tree)]
    assert modules, "admm.py imports nothing: the check would be vacuous"
    assert not [m for m in modules
                if m in (".config", "meshtv.config")
                or m.startswith((".config.", "meshtv.config."))]


def _memo_readers(path):
    """The lines of ``path`` that read or write an attribute named memo."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "memo"]


def test_only_the_outer_loop_touches_the_operators_cache():
    # the operator's cache has one owner: lptv keeps the whole Gram and the
    # last whole-mesh system there, and hands the inner solver its system
    assert _memo_readers(PACKAGE / "lptv.py"), "the check would be vacuous"
    touched = {path.name: lines for path in MODULES
               if path.name != "lptv.py" and (lines := _memo_readers(path))}
    assert touched == {}, f"op.memo is read or written outside lptv.py: {touched}"


def test_only_gradient_calls_scipys_private_kernels():
    # the kernels check no size, so one module owns the checks made
    # before every call
    importers = sorted(
        path.name for path in PACKAGE.glob("*.py")
        if any(module == "scipy.sparse._sparsetools"
               or module.startswith("scipy.sparse._sparsetools.")
               for _, module in _imports(ast.parse(path.read_text(encoding="utf-8")))))
    assert importers == ["gradient.py"]
