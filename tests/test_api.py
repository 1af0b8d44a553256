"""The package's public surface: every public top-level name has a caller."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "antimorph"


def _referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set:
    """Names a module's code refers to (loads, attributes and imports),
    leaving out the subtree `skip`; string mentions do not count."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_name_has_a_caller():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sources}
    everywhere = {path: _referenced_names(tree) for path, tree in trees.items()}
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            own = _referenced_names(trees[path], skip=node)
            others = (names for other, names in everywhere.items()
                      if other != path)
            if node.name not in own and not any(node.name in n for n in others):
                uncalled.append(f"{path.stem}.{node.name}")
    assert uncalled == [], f"public names no package or benchmark code uses: {uncalled}"


def test_cli_builds_no_report():
    # every report the CLI prints comes from a builder in `suite`
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    assert {"TheoremReport", "check"} & _referenced_names(tree) == set()


def test_no_module_imports_another_modules_private_name():
    # tests may still reach private names, by monkeypatching
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and \
                    (node.level or (node.module or "").startswith("antimorph")):
                private += [f"{path.stem}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []
