"""Every import in the library modules is at module level and used, and
names the package itself or the standard library.

`__init__.py` is skipped by the unused-import check: its imports are the
package's exports.  An import kept on purpose as a re-export carries
`# noqa: F401` on its line.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gso"


def unused_imports(path: Path) -> list[str]:
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used)


def test_every_module_level_import_is_used():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [u for p in modules for u in unused_imports(p)] == []


def function_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    return sorted(
        f"{path.name}:{node.lineno} in {fn.name}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )


def test_no_import_inside_a_function():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert [f for p in modules for f in function_imports(p)] == []


def foreign_imports(path: Path) -> list[str]:
    """The absolute imports in path whose top-level module is not in the
    standard library; relative imports name the package itself."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        out += [
            f"{path.name}:{node.lineno} {name}"
            for name in names
            if name.split(".")[0] not in sys.stdlib_module_names
        ]
    return sorted(out)


def test_the_library_imports_nothing_outside_the_standard_library():
    # the library keeps zero runtime dependencies: an install with no
    # extras runs it
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert [f for p in modules for f in foreign_imports(p)] == []
