"""The runtime is stdlib-only: every module of the package imports nothing but
the standard library and the package itself."""
import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "socicache").glob("*.py"))


def _imported_top_level(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    assert SOURCES
    foreign = {}
    for path in SOURCES:
        names = _imported_top_level(ast.parse(path.read_text(encoding="utf-8")))
        names -= set(sys.stdlib_module_names) | {"socicache"}
        if names:
            foreign[path.name] = sorted(names)
    assert foreign == {}


def test_package_modules_use_every_name_they_import():
    """A deletion cannot leave an import behind: each name a module imports
    (``__future__`` aside) is read somewhere in that module."""
    unused = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}
