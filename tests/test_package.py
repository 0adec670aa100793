"""Package-wide rules read from the source of ``src/hcl``."""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src", "hcl")
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))


def _is_empty_container(node) -> bool:
    """``{}``, ``[]``, ``dict()``, ``list()`` or ``set()``."""
    if isinstance(node, ast.Dict | ast.List):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "list", "set")
            and not node.args and not node.keywords)


def module_caches(source: str) -> list[str]:
    """The module-level names that ``source`` binds to an empty container,
    the shape of a cache that every caller shares; statements inside
    functions and classes are not module level."""
    found = []
    todo = list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef
                      | ast.ClassDef):
            continue
        if isinstance(node, ast.Assign | ast.AnnAssign) \
                and node.value is not None and _is_empty_container(node.value):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            found += [ast.unparse(t) for t in targets]
        todo.extend(ast.iter_child_nodes(node))
    return found


def test_module_caches_finds_every_form():
    source = ("A = {}\nB: dict[int, int] = {}\nC = []\nD = dict()\n"
              "if True:\n    E = set()\n"
              "F = {'k': 1}\nG = dict(k=1)\n"
              "def f():\n    H = {}\n"
              "class K:\n    I = []\n")
    assert sorted(module_caches(source)) == ["A", "B", "C", "D", "E"]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_level_cache(module):
    # state shared by every caller does not survive a pickle or a second
    # process, and a harness must remember to clear it; whoever repeats a
    # piece of work keeps it instead
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert module_caches(fh.read()) == [], module
