"""The package keeps no dead helpers: what it defines, it or the benchmark uses."""

import ast
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _trees(folder):
    for root, _dirs, files in os.walk(os.path.join(REPO, folder)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as fh:
                    yield path, ast.parse(fh.read(), path)


def _references(tree, strings):
    """The names ``tree`` uses: a name, an attribute, an imported name, and
    with ``strings`` every string constant, as the benchmark's tracer
    names the functions it wraps."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_top_level_definition_is_referenced():
    used = set()
    for folder, strings in (("src", False), ("hktbench", True)):
        for _path, tree in _trees(folder):
            used.update(_references(tree, strings))
    unused = [
        "%s: %s" % (os.path.relpath(path, REPO), node.name)
        for path, tree in _trees(os.path.join("src", "hktsolve"))
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used]
    assert not unused, "defined but never referenced: %s" % ", ".join(unused)
