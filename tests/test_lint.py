"""Every import in src/ and tests/ is read: an AST scan, since no linter
runs in the suite. An import kept only to be re-exported says so with
`# noqa: F401` on its line; a package's __init__.py imports only to
re-export, so it is not scanned."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(source):
    """(line, name) of each name source imports and never reads. A name in
    `__all__` is read; `from __future__` and star imports bind nothing."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []  # (line, bound name)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.lineno, (a.asname or a.name).split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.lineno, a.asname or a.name)
                         for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [(line, name) for line, alias_line, name in imported
            if name not in read
            and not any("# noqa: F401" in lines[n - 1] for n in (line, alias_line))]


def test_the_scan_finds_an_unused_import_and_honours_noqa():
    source = ("import os\nimport sys  # noqa: F401\nfrom math import (\n    pi,\n    tau,\n)\n"
              "import numpy.linalg\n__all__ = ['tau']\nprint(numpy)\n")
    assert _unused_imports(source) == [(1, "os"), (3, "pi")]


def test_no_unused_imports_in_src_or_tests():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for folder in ("src", "tests")
             for path in sorted((ROOT / folder).rglob("*.py")) if path.name != "__init__.py"
             for line, name in _unused_imports(path.read_text())]
    assert found == []
