"""The package's export list matches its public attributes, and each export has a caller
outside the tests."""

import ast
import types
from pathlib import Path

import ttomo

ROOT = Path(__file__).resolve().parents[1]


def test_export_list_names_exactly_the_public_attributes():
    assert len(set(ttomo.__all__)) == len(ttomo.__all__)
    assert [name for name in ttomo.__all__ if not hasattr(ttomo, name)] == []
    public = {
        name
        for name, value in vars(ttomo).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(ttomo.__all__)) == []


def test_fitting_submodule_and_fit_function_are_distinct():
    import ttomo.fitting as fitting

    assert isinstance(fitting, types.ModuleType)
    assert fitting.fit is ttomo.fit
    assert callable(ttomo.fit) and not isinstance(ttomo.fit, types.ModuleType)


class _References(ast.NodeVisitor):
    """Every name and attribute a module reads, except inside the definition of that name."""

    def __init__(self):
        self.names = set()
        self.enclosing = []

    def visit_definition(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = visit_definition

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id not in self.enclosing:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load) and node.attr not in self.enclosing:
            self.names.add(node.attr)
        self.generic_visit(node)


MODULES = sorted((ROOT / "src" / "ttomo").glob("*.py"))


def _read_by_the_package_or_the_benchmark() -> set:
    references = _References()
    for path in [p for p in MODULES if p.name != "__init__.py"] + sorted(ROOT.glob("bench/*.py")):
        references.visit(ast.parse(path.read_text(encoding="utf-8")))
    return references.names


def test_every_export_is_used_by_the_package_or_the_benchmark():
    # an export that only the tests call is a helper that belongs in tests/oracles.py
    assert sorted(set(ttomo.__all__) - _read_by_the_package_or_the_benchmark()) == []


def _module_level_names(path: Path) -> set:
    """The public functions, classes and constants a module defines at its top level."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_every_public_module_level_name_is_used_by_the_package_or_the_benchmark():
    # the export rule for every module: a public helper that only the tests read belongs in
    # tests/oracles.py, exported or not
    read = _read_by_the_package_or_the_benchmark()
    unread = {
        f"{path.stem}.{name}" for path in MODULES for name in _module_level_names(path) - read
    }
    assert sorted(unread) == []
