"""Checks on the package's source text."""

import ast
import pathlib

import pacgreen


def private_definitions(tree):
    """Names of the module-level private functions, classes and constants
    of a parsed module (dunder names are not private)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            names = [node.name]
        elif isinstance(node, ast.Assign | ast.AnnAssign):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_")
                    and not n.startswith("__"))


def test_every_private_name_is_used():
    # a private helper, class or constant that no code in the package
    # reads is dead: names in docstrings and comments do not count, and
    # neither do the tests, which may only read what the package uses
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(pathlib.Path(pacgreen.__file__).parent.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = [f"{module}:{name}" for module, tree in trees.items()
            for name in private_definitions(tree) if name not in used]
    assert dead == []
