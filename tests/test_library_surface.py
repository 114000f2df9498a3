"""Every top-level function and class of ``ocft``, and every method and
property of its classes, is read by ``ocft`` itself.

Code that only tests call belongs in ``tests/``, beside the tests that use
it; that holds for private helpers as for public names.  A name counts as
read if a module of the package loads it, as a name or an attribute,
outside its own definition; imports, ``__all__`` entries and docstrings do
not count.  Methods are matched by name alone, so a method counts as read
wherever any object's attribute of that name is loaded.  Dunder methods,
which Python calls itself, are not checked.  ``cli.main`` is the console
entry point.

Every name a module lists in ``__all__`` is bound at its top level, by a
definition, an assignment or an import, so removing a name cannot leave a
stale export behind.
"""

import ast
import re
from pathlib import Path

import ocft


def _definitions(tree):
    """The name of each top-level function and class, and of each method and
    property of a top-level class but its dunders, as Class.method."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            yield top.name
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, ast.FunctionDef) and not re.fullmatch(r"__\w+__", item.name):
                    yield f"{top.name}.{item.name}"


def _loads(node, owners=frozenset()):
    """Each name or attribute loaded under ``node``, outside the definitions
    of that name."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        owners = owners | {node.name}
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    if name and name not in owners and not isinstance(getattr(node, "ctx", None), ast.Store):
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _loads(child, owners)


def _unused(modules, exempt=("cli.main",)):
    defined, read = set(), set()
    for module, tree in modules.items():
        defined.update(f"{module}.{name}" for name in _definitions(tree))
        read.update(_loads(tree))
    return sorted({d for d in defined if d.rsplit(".", 1)[1] not in read} - set(exempt))


def _package_modules():
    package = Path(ocft.__file__).resolve().parent
    return {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}


def _package_unused():
    return _unused(_package_modules())


def _bound(tree):
    """Each name bound at the top level of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def _stale_exports(modules):
    """Each module.name listed in a module's ``__all__`` but bound nowhere in it."""
    stale = []
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                bound = set(_bound(tree))
                stale += [f"{module}.{name}" for name in ast.literal_eval(node.value)
                          if name not in bound]
    return sorted(stale)


def _private(name):
    return any(part.startswith("_") for part in name.split(".")[1:])


def test_no_public_definition_is_test_only():
    unused = [name for name in _package_unused() if not _private(name)]
    assert not unused, f"read nowhere in ocft outside their own definition: {unused}"


def test_no_private_definition_is_test_only():
    unused = [name for name in _package_unused() if _private(name)]
    assert not unused, f"read nowhere in ocft outside their own definition: {unused}"


def test_the_check_finds_a_definition_only_it_reads():
    source = ("def used():\n    return 1\n\n\ndef unused():\n    return used() + unused()\n\n\n"
              "def _private():\n    return _private()\n\n\n"
              "class Used:\n"
              "    def __init__(self):\n        self.value = self.read()\n\n"
              "    def read(self):\n        return self.size\n\n"
              "    @property\n    def size(self):\n        return 1\n\n"
              "    def unread(self):\n        return self.unread()\n\n"
              "    def _unread(self):\n        return 0\n\n\n"
              "Used()\n")
    assert _unused({"probe": ast.parse(source)}) == [
        "probe.Used._unread", "probe.Used.unread", "probe._private", "probe.unused"]


def test_every_export_is_defined():
    stale = _stale_exports(_package_modules())
    assert not stale, f"listed in __all__ but not defined in their module: {stale}"


def test_the_check_finds_a_stale_export():
    source = ("import os.path\nfrom x import y as z\n"
              "__all__ = ['f', 'C', 'K', 'T', 'os', 'z', 'gone']\n"
              "K = 1\nT: int = 2\n\n\ndef f():\n    return gone\n\n\nclass C:\n    gone = 3\n")
    assert _stale_exports({"probe": ast.parse(source)}) == ["probe.gone"]
