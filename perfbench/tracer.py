"""Span tracer for the gensob layers, installed from outside the package.

``install()`` wraps the public functions of the six modules ``cli``,
``reports``, ``weights``, ``spectra``, ``noise`` and ``disk``.  A function is
replaced at every module-level binding in the ``gensob`` package (``disk`` and
``noise`` import ``sample_white_noise``, ``nikolskii_norm`` and
``hermitian_part`` by name), and a class or method is wrapped on the class,
so every caller goes through the wrapper.  A layer that is entered again while
it is open (weight trees evaluating their subtrees, recursive parsing) is
recorded once, at its outermost call.

Spans are kept in memory as ``[name, start, end, parent, attrs]`` lists,
``parent`` being the index of the enclosing span or -1, and the caller writes
them out when the run ends.  Tasks that ``cli._map_tasks`` sends to a process
pool run under ``run_in_worker``, which hands the worker's spans back with the
task result, so pool work is traced too.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import importlib
import inspect
import sys
import time
from pathlib import Path

import numpy as np

# CLOCK_MONOTONIC is one clock for every process on the machine, so spans from
# pool workers and launch times taken by the parent line up with the child's.
CLOCK = time.CLOCK_MONOTONIC

LAYERS = {
    "cli": ["main", "validate_config", "_map_tasks"],
    "reports": ["write_report"],
    "noise": ["sample_white_noise", "covariance_check", "regularity_norms"],
    "spectra": [
        "SpectralField", "hermitian_part", "DyadicBlocks", "nikolskii_norm", "halpha_norm",
        "interp_norm", "random_field", "extremal_nikolskii_field", "embedding_ratio_sweep",
    ],
    "weights": [
        "log_value", "weight_from_json", "indices", "interp_param", "eta_construct",
        "dyadic_integral_test", "embed_nikolskii", "embed_hormander", "check_or_window",
    ],
    "disk": [
        "solve_dirichlet", "snorm", "trace_field", "check_apriori_weight",
        "evaluate_polar_grid", "uniform_convergence_experiment",
    ],
}
LABELS = [f"{mod}.{name}" for mod, names in LAYERS.items() for name in names]

# The recorder installed in this process.  Pool workers receive only a
# pickled reference to run_in_worker, so they find their recorder here.
_ACTIVE = None


def now() -> float:
    return time.clock_gettime(CLOCK)


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.open_names = collections.Counter()
        self.seen = collections.defaultdict(set)
        self.missing = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None])
        self.stack.append(idx)
        self.open_names[name] += 1
        self.spans[idx][1] = now()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = now()
        self.stack.pop()
        self.open_names[self.spans[idx][0]] -= 1

    def repeated(self, name: str, key) -> bool:
        """True when ``key`` was already seen by ``name`` in this process."""
        seen = self.seen[name]
        if key in seen:
            return True
        seen.add(key)
        return False


def _wrap(rec: Recorder, name: str, fn):
    attrs = ATTRS.get(name)
    sig = inspect.signature(fn) if attrs is not None else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if rec.open_names[name]:
            return fn(*args, **kwargs)
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if attrs is not None:
            rec.spans[idx][4] = attrs(rec, sig.bind(*args, **kwargs).arguments, result)
        return result

    return traced


def _wrap_map_tasks(rec: Recorder, fn):
    name = "cli._map_tasks"

    @functools.wraps(fn)
    def traced(task_fn, tasks, workers):
        pooled = workers > 1 and len(tasks) > 1
        idx = rec.open(name)
        try:
            out = fn(functools.partial(run_in_worker, task_fn) if pooled else task_fn, tasks, workers)
        finally:
            rec.close(idx)
        if not pooled:
            return out
        rec.spans[idx][4] = {"tasks": len(tasks)}
        results = []
        for result, spans in out:
            base = len(rec.spans)
            for sname, start, end, parent, sattrs in spans:
                rec.spans.append([sname, start, end, idx if parent < 0 else parent + base, sattrs])
            results.append(result)
        return results

    return traced


def run_in_worker(task_fn, task):
    """Run one pool task under a fresh span list; return (result, spans)."""
    rec = _ACTIVE or install()
    saved = rec.spans, rec.stack, rec.open_names
    rec.spans, rec.stack, rec.open_names = [], [], collections.Counter()
    try:
        return task_fn(task), rec.spans
    finally:
        rec.spans, rec.stack, rec.open_names = saved


# --- per-call attributes, computed after the span closes --------------------


def _noise_attrs(rec, args, result):
    return {"bytes": result.field.coeffs.nbytes}


def _report_attrs(rec, args, result):
    out = Path(args["out_dir"])
    files = [out / f for f in ("results.csv", "report.json", "timing.json")]
    return {"bytes": sum(f.stat().st_size for f in files if f.exists())}


def _blocks_attrs(rec, args, result):
    return {"repeat": rec.repeated("spectra.DyadicBlocks", (args["dim"], args["n"]))}


def _log_value_attrs(rec, args, result):
    u = np.ascontiguousarray(args["u"], dtype=float)
    digest = hashlib.blake2b(u.data, digest_size=16).digest()
    return {"elems": int(u.size),
            "repeat": rec.repeated("weights.log_value", (args["self"], u.shape, digest))}


ATTRS = {
    "noise.sample_white_noise": _noise_attrs,
    "reports.write_report": _report_attrs,
    "spectra.DyadicBlocks": _blocks_attrs,
    "weights.log_value": _log_value_attrs,
}


def install() -> Recorder:
    """Wrap every layer function of the imported gensob package; idempotent."""
    global _ACTIVE
    if _ACTIVE is not None:
        return _ACTIVE
    rec = Recorder()
    modules = {mod: importlib.import_module(f"gensob.{mod}") for mod in LAYERS}
    package = [m for n, m in list(sys.modules.items()) if n == "gensob" or n.startswith("gensob.")]
    for mod_name, names in LAYERS.items():
        mod = modules[mod_name]
        for fn_name in names:
            label = f"{mod_name}.{fn_name}"
            if fn_name == "log_value":
                classes = [c for c in vars(mod).values() if isinstance(c, type)
                           and issubclass(c, mod.WeightExpr) and "log_value" in vars(c)]
                for cls in classes:
                    cls.log_value = _wrap(rec, label, cls.log_value)
                continue
            obj = getattr(mod, fn_name, None)
            if obj is None:
                rec.missing.append(label)
                continue
            if isinstance(obj, type):
                obj.__init__ = _wrap(rec, label, obj.__init__)
                continue
            if label == "cli._map_tasks":
                new = _wrap_map_tasks(rec, obj)
            else:
                new = _wrap(rec, label, obj)
            for module in package:
                for attr, val in list(vars(module).items()):
                    if val is obj:
                        setattr(module, attr, new)
    _ACTIVE = rec
    return rec


# --- aggregation -------------------------------------------------------------


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans) -> dict:
    """Per layer: busy time ``s``, self time ``self_s``, ``calls`` and attribute sums.

    Self time is a span's duration minus the part of its interval that its
    child spans cover; children from parallel pool workers overlap, so the
    covered part is the length of the union of their intervals.
    """
    children = collections.defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = {}
    for i, (name, start, end, _parent, attrs) in enumerate(spans):
        dur = end - start
        covered = _union_length(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]
        )
        agg = out.setdefault(name, collections.Counter())
        agg["s"] += dur
        agg["self_s"] += dur - covered
        agg["calls"] += 1
        for key, val in (attrs or {}).items():
            agg[key] += val
    return out
