"""Every private helper of the package has a reader in the package.

Each ``src/alcove_kl/*.py`` is parsed with ``ast``.  A private name is
one with a leading underscore that is not a dunder: a module-level
function, class or constant, or a method.  A name or attribute that
some expression of some module loads counts as a reader, so a helper
read only from another module, or a method read only through a
subclass, is kept; one that nothing loads fails the check.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "alcove_kl"


def _private(name):
    return name.startswith("_") and not name.endswith("__") and name != "_"


def private_definitions(module, tree):
    """(qualified name, name) of each private definition of the module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from ((f"{module}.{n}", n) for n in names if _private(n))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                method = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                if method and _private(item.name):
                    yield f"{module}.{node.name}.{item.name}", item.name


def loaded_names(trees):
    """Every name and attribute that an expression of ``trees`` loads."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add(node.attr)
    return out


def unread(sources):
    """The private definitions of ``sources`` (module -> text) that no
    module loads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = loaded_names(trees.values())
    return [
        qualified
        for module, tree in trees.items()
        for qualified, name in private_definitions(module, tree)
        if name not in read
    ]


def test_every_private_helper_is_read():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    dead = unread(sources)
    assert not dead, f"private definitions that nothing in the package reads: {', '.join(dead)}"


def test_the_check_sees_an_unread_helper():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_UNUSED: int = 4\n"
            "def _helper(x):\n"
            "    return x + _LIMIT\n"
            "def _dead():\n"
            "    return 0\n"
            "class _Kept:\n"
            "    def __init__(self):\n"
            "        self._n = 0\n"
            "    def _used(self):\n"
            "        return self._n\n"
            "    def _orphan(self):\n"
            "        return 1\n"
        ),
        "b": (
            "from .a import _Kept, _helper\n"
            "def run():\n"
            "    return _helper(1), _Kept()._used()\n"
        ),
    }
    assert unread(sources) == ["a._UNUSED", "a._dead", "a._Kept._orphan"]
