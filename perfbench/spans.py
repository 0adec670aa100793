"""Layer-boundary spans recorded from outside the ``hcl`` package.

A :class:`Tracer` replaces each traced public function under every name a
module of ``hcl`` binds it to (``hcl.train.unsup_loss_multiview``,
``hcl.mi.sample_batch``, ...), so callers reach the wrapper through their
ordinary global lookup. A wrapper records one span per call: name, start,
end, parent span and run id, plus the minor page faults counted across the
call. Work counts are computed from argument and result shapes at the same
boundary, after the span's clock has stopped. Spans stay in memory; the
caller writes them out once, at the end.

``uninstall`` puts every original object back and checks that no module
attribute still holds a wrapper, so an untraced run in the same process sees
the unmodified package.
"""

from __future__ import annotations

import importlib
import resource
import sys
import time
from array import array

import numpy as np


def _batch_size(args, kwargs) -> int:
    return (args or tuple(kwargs.values()))[0].n


def _multiview_logits(args, kwargs, result):
    return {"logits": 4 * _batch_size(args, kwargs) ** 2}


def _single_logits(args, kwargs, result):
    return {"logits": _batch_size(args, kwargs) ** 2}


def _plan_negatives(args, kwargs, result):
    return {"negatives": int(result.negatives.size)}


def _nonfinite_runs(args, kwargs, result):
    # noise-sweep writes no loss trace, so its traces are checked here
    bad = any(not np.isfinite([b.l_c, b.l_u, b.l_s, b.j]).all()
              for b in result.trace)
    return {"nonfinite_runs": int(bad)}


def _mask_counts(args, kwargs, result):
    # useful-over-attempted for the masking work: negatives selected over
    # the n(n-1) off-diagonal pairs a dense mask spans
    n = result.n
    return {"mask_selected": int(np.count_nonzero(result.neg_mask)),
            "mask_pairs": n * (n - 1)}


# span name -> (attributes of ``hcl`` whose objects it wraps, work counter).
# Every module binding of one of these objects is replaced by the span's
# wrapper; ``cli.command`` covers whichever subcommand ``hcl.cli.main`` runs.
#
# Where a change to a span should move wall_s (and, for minflt, peak_rss_mb),
# and where it should not:
#   unsup_loss_multiview, row_logsumexp, unit_rows: scene, unsup-bound; not
#     full-plan
#   unsup_loss_single: full-plan; not scene, unsup-bound
#   plan_neg_mask, ContrastiveBatch: full-plan; not noise-sweep
#   sample_batch: noise-sweep; not full-plan (one call per run)
#   weighted_sup_loss, cross_entropy: noise-sweep; not unsup-bound (no calls)
#   encode, classify, model_backward, lars_step, run_training (self time is
#     the per-step glue): noise-sweep; not scene, full-plan
#   evaluate, make_views, inject_noise, build_dataset, resolve_config:
#     setup_s and noise-sweep; not the others
#   check_unsup_bound: unsup-bound only
#   save_checkpoint, cli.command (self time is the command's I/O): scene,
#     full-plan; not unsup-bound
SPANS: dict[str, tuple[tuple[str, ...], object]] = {
    "cli.command": (("cli.cmd_train", "cli.cmd_noise_sweep",
                     "cli.cmd_bound_check", "cli.cmd_eval",
                     "cli.cmd_perf_sweep"), None),
    "config.resolve_config": (("config.resolve_config",), None),
    "train.build_dataset": (("train.build_dataset",), None),
    "train.run_training": (("train.run_training",), _nonfinite_runs),
    "mi.check_unsup_bound": (("mi.check_unsup_bound",), None),
    "data.make_views": (("data.make_views",), None),
    "data.inject_noise": (("data.inject_noise",), None),
    "data.sample_batch": (("data.sample_batch",), _plan_negatives),
    "data.plan_neg_mask": (("data.plan_neg_mask",), None),
    "losses.ContrastiveBatch": (("losses.ContrastiveBatch",), _mask_counts),
    "losses.unsup_loss_multiview": (("losses.unsup_loss_multiview",),
                                    _multiview_logits),
    "losses.unsup_loss_single": (("losses.unsup_loss_single",),
                                 _single_logits),
    "losses.weighted_sup_loss": (("losses.weighted_sup_loss",), None),
    "losses.cross_entropy": (("losses.cross_entropy",), None),
    "numeric.row_logsumexp": (("numeric.row_logsumexp",), None),
    "numeric.unit_rows": (("numeric.unit_rows",), None),
    "model.encode": (("model.encode",), None),
    "model.classify": (("model.classify",), None),
    "model.model_backward": (("model.model_backward",), None),
    "optimizer.lars_step": (("optimizer.lars_step",), None),
    "metrics.evaluate": (("metrics.evaluate",), None),
    "model.save_checkpoint": (("model.save_checkpoint",), None),
}

SPAN_NAMES = tuple(SPANS)

# work counts derived at the boundaries: metric name -> unit
WORK_COUNTS = {
    "losses.unsup_loss_multiview.logits": "count",
    "losses.unsup_loss_single.logits": "count",
    "data.sample_batch.negatives": "count",
    "losses.ContrastiveBatch.mask_density": "1",
}


def _hcl_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hcl" or name.startswith("hcl."))]


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        # one span per index across these columns; flat arrays keep tens of
        # thousands of spans out of the garbage collector's reach
        self.name = array("i")       # index into SPAN_NAMES
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")     # span index, or -1 for a root span
        self.run = array("q")
        self.minflt = array("q")
        # (run id, span name, count key) -> summed count
        self.counts: dict[tuple[int, str, str], int] = {}
        self.run_id = 0
        self.missing: list[str] = []  # spans none of whose objects exist
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrapper(self, name: str, fn, counter):
        code = SPAN_NAMES.index(name)
        names, starts, ends = self.name, self.start, self.end
        parents, runs, faults = self.parent, self.run, self.minflt
        stack, counts = self._stack, self.counts
        clock = time.perf_counter
        usage = resource.getrusage
        who = resource.RUSAGE_SELF

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(code)
            starts.append(0.0)
            ends.append(0.0)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            faults.append(0)
            stack.append(idx)
            f0 = usage(who).ru_minflt
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                faults[idx] = usage(who).ru_minflt - f0
                starts[idx], ends[idx] = t0, t1
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    slot = (runs[idx], name, key)
                    counts[slot] = counts.get(slot, 0) + value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced._perfbench_span = name
        return traced

    def install(self) -> None:
        """Wrap every module binding of every traced object."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        modules = _hcl_modules()
        for span, (sources, counter) in SPANS.items():
            found = False
            for source in sources:
                mod_name, _, attr = source.rpartition(".")
                original = getattr(importlib.import_module(f"hcl.{mod_name}"),
                                   attr, None)
                if original is None:
                    continue
                found = True
                wrapper = self._wrapper(span, original, counter)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
            if not found:
                self.missing.append(span)

    def uninstall(self) -> None:
        """Restore the originals; raise if any wrapper is still reachable."""
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        patches, self._patches = self._patches, []
        for mod, key, original in patches:
            if getattr(mod, key) is not original:
                raise RuntimeError(f"{mod.__name__}.{key} was not restored")
        for mod in _hcl_modules():
            for key, value in vars(mod).items():
                if hasattr(value, "_perfbench_span"):
                    raise RuntimeError(f"{mod.__name__}.{key} is still wrapped")

    def run_stats(self, run_id: int) -> dict:
        """Per-span calls, self time and minor faults of one run, the summed
        duration of its root spans, its work counts, and how many of its
        training runs had a non-finite loss trace."""
        index = [i for i, r in enumerate(self.run) if r == run_id]
        dur = {i: self.end[i] - self.start[i] for i in index}
        self_s = dict(dur)
        root_s = 0.0
        for i in index:
            if self.parent[i] >= 0:
                self_s[self.parent[i]] -= dur[i]
            else:
                root_s += dur[i]
        stats = {name: {"calls": 0, "self_s": 0.0, "minflt": 0}
                 for name in SPANS}
        for i in index:
            entry = stats[SPAN_NAMES[self.name[i]]]
            entry["calls"] += 1
            entry["self_s"] += self_s[i]
            entry["minflt"] += self.minflt[i]
        counts = {(name, key): v for (rid, name, key), v in self.counts.items()
                  if rid == run_id}
        selected = counts.get(("losses.ContrastiveBatch", "mask_selected"), 0)
        pairs = counts.get(("losses.ContrastiveBatch", "mask_pairs"), 0)
        work = {
            "losses.unsup_loss_multiview.logits":
                counts.get(("losses.unsup_loss_multiview", "logits"), 0),
            "losses.unsup_loss_single.logits":
                counts.get(("losses.unsup_loss_single", "logits"), 0),
            "data.sample_batch.negatives":
                counts.get(("data.sample_batch", "negatives"), 0),
            "losses.ContrastiveBatch.mask_density":
                selected / pairs if pairs else 0.0,
        }
        return {"spans": stats, "root_s": root_s,
                "min_self_s": min(self_s.values(), default=0.0), "work": work,
                "nonfinite_runs": counts.get(("train.run_training",
                                              "nonfinite_runs"), 0)}

    def dump(self) -> dict:
        """All spans in a compact JSON-ready form."""
        return {
            "span_names": list(SPAN_NAMES),
            "span_fields": ["name", "start", "end", "parent", "run", "minflt"],
            "spans": [list(row) for row in zip(self.name, self.start, self.end,
                                                self.parent, self.run,
                                                self.minflt)],
            "counts": [[rid, name, key, v]
                       for (rid, name, key), v in sorted(self.counts.items())],
        }
