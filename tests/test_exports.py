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
        if node.id not in self.enclosing:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self.enclosing:
            self.names.add(node.attr)
        self.generic_visit(node)


def test_every_export_is_used_by_the_package_or_the_benchmark():
    # an export that only the tests call is a helper that belongs in tests/oracles.py
    modules = [p for p in (ROOT / "src" / "ttomo").glob("*.py") if p.name != "__init__.py"]
    references = _References()
    for path in modules + list((ROOT / "bench").glob("*.py")):
        references.visit(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(set(ttomo.__all__) - references.names) == []
