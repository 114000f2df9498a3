"""Every public top-level function and class of ``ocft`` is read by ``ocft`` itself.

Code that only tests call belongs in ``tests/``, beside the tests that use
it.  A name counts as read if a module of the package loads it, as a name or
an attribute, outside its own definition; imports, ``__all__`` entries and
docstrings do not count.  ``cli.main`` is the console entry point.
"""

import ast
from pathlib import Path

import ocft


def _unused(modules, exempt=("cli.main",)):
    defined, read = set(), set()
    for module, tree in modules.items():
        for top in tree.body:
            owner = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not owner.startswith("_"):
                defined.add((module, owner))
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name and name != owner and not isinstance(getattr(node, "ctx", None), ast.Store):
                    read.add(name)
    return sorted({f"{m}.{n}" for m, n in defined if n not in read} - set(exempt))


def test_no_public_definition_is_test_only():
    package = Path(ocft.__file__).resolve().parent
    modules = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    unused = _unused(modules)
    assert not unused, f"read nowhere in ocft outside their own definition: {unused}"


def test_the_check_finds_a_definition_only_it_reads():
    source = "def used():\n    return 1\n\n\ndef unused():\n    return used() + unused()\n"
    assert _unused({"probe": ast.parse(source)}) == ["probe.unused"]
