"""Package-wide rules read from the source of ``src/hcl``, and the hooks
that the benchmark's tracer (``perfbench/spans.py``) sets in the package."""

import ast
import importlib
import os
import types

import numpy as np
import pytest

from hcl.data import Dataset, sample_batch
from hcl.losses import ContrastiveBatch
from hcl.numeric import make_rng

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "hcl")
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))
SPANS = os.path.join(ROOT, "perfbench", "spans.py")
# span sources known to name nothing in ``hcl``: the sampler's mask helper
# was folded into ``data.sample_batch``, and the span waits to be removed
ORPHANED_SPAN_SOURCES = {"data.plan_neg_mask"}


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


def benchmark_spans() -> types.ModuleType:
    """``perfbench/spans.py`` run as a module from its source, so that no
    bytecode cache is written under ``perfbench``."""
    module = types.ModuleType("perfbench_spans")
    module.__file__ = SPANS
    with open(SPANS, encoding="utf-8") as fh:
        exec(compile(fh.read(), SPANS, "exec"), vars(module))
    return module


def test_every_benchmark_span_wraps_an_hcl_object():
    # a span whose source is gone is skipped by the tracer, and reads 0
    # calls from then on without failing any run
    gone = []
    for sources, _ in benchmark_spans().SPANS.values():
        for source in sources:
            module, _, name = source.rpartition(".")
            if not hasattr(importlib.import_module(f"hcl.{module}"), name):
                gone.append(source)
    assert set(gone) <= ORPHANED_SPAN_SOURCES, gone


def test_benchmark_work_counters_read_what_hcl_returns():
    # each counter runs on the value its span sees, as the tracer calls it
    counters = {name: counter
                for name, (_, counter) in benchmark_spans().SPANS.items()}
    ds = Dataset(views=[np.eye(6)], labels=np.eye(6)[:, :2] + np.eye(6)[:, 2:4],
                 labeled_mask=np.ones(6, dtype=bool))
    for neg_size in (2, "full"):
        k = 5 if neg_size == "full" else neg_size
        plan = sample_batch(ds, 6, neg_size, make_rng(0))
        assert counters["data.sample_batch"](
            (ds, 6, neg_size, None), {}, plan) == {"negatives": 6 * k}
        z = np.arange(12.0).reshape(6, 2)
        batch = ContrastiveBatch([z], plan.neg_mask)
        counts = counters["losses.ContrastiveBatch"]((), {}, batch)
        assert counts["mask_pairs"] == 30
        if plan.neg_mask is not None:
            assert counts["mask_selected"] == 12
        assert counters["losses.unsup_loss_single"](
            (batch, 0.5), {}, None) == {"logits": 36}
        assert counters["losses.unsup_loss_multiview"](
            (ContrastiveBatch([z, z], plan.neg_mask), 0.5), {},
            None) == {"logits": 4 * 36}


def test_no_test_module_shadows_a_benchmark_module():
    # neither tests/ nor perfbench/ is a package, so pytest's default import
    # mode puts both on sys.path: a module name in both resolves to whichever
    # loads first, and a session that runs both directories breaks
    def modules(directory):
        return {name[:-3] for name in os.listdir(os.path.join(ROOT, directory))
                if name.endswith(".py")}

    assert not modules("tests") & modules("perfbench")
