"""Every private name of ``robloc`` has a caller in ``robloc``.

A module-level private name (function, class or assigned constant) and a
private method of a class must each be loaded somewhere in ``src/robloc``
outside its own definition, and a private attribute stored on an instance
must be read somewhere in ``src/robloc``; a name read only by the tests,
by a docstring or by itself is dead code and should be deleted.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "robloc"


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def private_definitions(tree: ast.Module) -> list:
    """(name, node) of the module's private functions, classes and assigned
    names, and of the private methods of its classes."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node) for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        found += [(node.name, node) for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [(name, node) for name, node in found if is_private(name)]


def loads(node: ast.AST) -> list:
    """Every name read under ``node``, as a bare name or an attribute."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)]


def attribute_stores(tree: ast.Module) -> list:
    """The private attributes the module stores on ``self``, as
    ``self._x = ...`` or ``object.__setattr__(self, "_x", ...)``, one entry
    per store."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and is_self(node.value):
            found.append(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "__setattr__" and len(node.args) == 3 and is_self(node.args[0])
              and isinstance(node.args[1], ast.Constant)):
            found.append(node.args[1].value)
    return [name for name in found if is_private(name)]


def parse_package() -> dict:
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def test_every_private_name_is_used_outside_its_definition():
    trees = parse_package()
    used = [name for tree in trees.values() for name in loads(tree)]
    definitions = [(module, name, node) for module, tree in trees.items() for name, node in private_definitions(tree)]
    assert len(definitions) >= 60  # the walk finds the package's private names
    unused = [f"{module}: {name}" for module, name, node in definitions
              if used.count(name) <= loads(node).count(name)]
    assert unused == []


def test_every_private_attribute_stored_is_read():
    trees = parse_package()
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    stores = [(module, name) for module, tree in trees.items() for name in attribute_stores(tree)]
    assert len(stores) >= 15  # the walk finds the package's private attributes
    assert [f"{module}: {name}" for module, name in stores if name not in read] == []
