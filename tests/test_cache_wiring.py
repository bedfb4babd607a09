"""A run's caches are wired in one place: in the package, only ``sim.py``
calls ``SocialCache(`` or ``CurrentCache(``, so every peer of a run gets its
caches from the same config."""
import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "socicache").glob("*.py"))
CACHES = {"SocialCache", "CurrentCache"}


def _cache_calls(tree: ast.AST) -> set[str]:
    """The cache classes that ``tree`` calls, by plain or dotted name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in CACHES:
                names.add(name)
    return names


def test_only_the_simulation_builds_caches():
    assert SOURCES
    builders = {}
    for path in SOURCES:
        names = _cache_calls(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            builders[path.name] = sorted(names)
    assert builders == {"sim.py": ["CurrentCache", "SocialCache"]}
