"""The package's public surface: every public top-level name has a caller."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "antimorph"


def _referenced_names(tree: ast.AST) -> set:
    """Names the code under `tree` refers to (loads, attributes and
    imports); string mentions do not count."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
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
    # one walk per top-level statement; `uses` counts, per module, the
    # statements that refer to each name
    statements, uses = {}, {}
    for path in sources:
        body = ast.parse(path.read_text(), filename=str(path)).body
        statements[path] = [(node, _referenced_names(node)) for node in body]
        uses[path] = Counter(name for _, names in statements[path] for name in names)
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node, names in statements[path]:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            # the other statements of its module, then every other module
            own = uses[path][node.name] - (node.name in names)
            others = (counts for other, counts in uses.items() if other != path)
            if not own and not any(node.name in counts for counts in others):
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


def test_every_check_call_passes_a_witness():
    # A failing check must name its inputs, so every `check(` call in the
    # package passes a witness, by keyword or as its third argument.
    calls, bare = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "check":
                calls += 1
                if len(node.args) < 3 and \
                        not any(k.arg == "witness" for k in node.keywords):
                    bare.append(f"{path.stem}:{node.lineno}")
    assert calls == 112
    assert bare == []
