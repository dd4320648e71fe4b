"""The public surface: every public name has a caller, every import is
used, and README's library example runs as written."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "regover"
BENCH = ROOT / "bench"


def _references(tree: ast.Module) -> list[tuple[str, int, bool]]:
    """(name, line, is_attribute) of every Name, Attribute and imported name
    in a module."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno, True))
        elif isinstance(node, ast.ImportFrom):
            refs.extend((alias.name, node.lineno, False) for alias in node.names)
    return refs


def _public_defs(tree: ast.Module):
    """(qualified name, node, member) of each public top-level def or class,
    and of each public method or property of a top-level class (member)."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if not isinstance(node, (*functions, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item, True


def _uncalled() -> dict[str, str]:
    """Each public top-level def or class in src/regover that nothing in
    src/ references outside its own body, and each public method or
    property of a top-level class that src/ never reads as ``.name``
    outside its own body, if bench/ does not name it either; mapped to
    where it is defined."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = {path: _references(tree) for path, tree in trees.items()}
    bench_text = "\n".join(p.read_text() for p in sorted(BENCH.rglob("*.py")))
    uncalled = {}
    for path, tree in trees.items():
        for qualname, node, member in _public_defs(tree):
            own = range(node.lineno, node.end_lineno + 1)
            called = any(
                name == node.name
                and (attribute or not member)
                and (other != path or line not in own)
                for other, other_refs in refs.items()
                for name, line, attribute in other_refs
            )
            if not called and not re.search(rf"\b{node.name}\b", bench_text):
                uncalled[qualname] = f"{path.name}:{node.lineno}"
    return uncalled


def test_every_public_name_has_a_caller():
    # a public name or member without a caller is deleted, or moves to the
    # tests
    assert _uncalled() == {}


def _unused_imports(path: Path) -> list[str]:
    """Names that a module imports and never references, except for
    ``from __future__`` and imports marked ``# noqa: F401`` (re-exports)."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


def test_every_import_is_used():
    # no linter runs here: a name left imported after its last use moved
    # out of a module is caught by this scan instead
    unused = [entry for path in sorted(SRC.glob("*.py"))
              for entry in _unused_imports(path)]
    assert unused == []


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
