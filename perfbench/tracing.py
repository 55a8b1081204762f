"""Spans and counters around burnlab's layers, installed from outside.

The tracer replaces module attributes that callers look up at call time, such
as ``burnlab.simlab.expected_rsol`` or ``burnlab.audit._bayes_rule``, with
wrappers that record a span (name, label, start, end, parent span, op id) or,
for calls made thousands of times per op, only a counter. Nothing under
``src/`` changes; uninstalling restores the original attributes. A target the
package no longer has is listed in ``missing``: its metrics read 0, run.py
prints it and compare marks its metrics as missing.

Spans stay in memory until the run ends. Per-layer figures are derived from
them: ``busy_s`` is the time covered by the outermost spans of a name, and
self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _bound(fn, args, kwargs):
    """Call arguments by parameter name, defaults filled in."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _profile_values(profile) -> np.ndarray:
    return np.asarray(getattr(profile, "values", profile), dtype=float)


def _two_price_label(tracer, fn, args, kwargs):
    values = _profile_values(_bound(fn, args, kwargs)["profile"])
    kind = "tied" if np.unique(values).size < values.size else "distinct"
    return f"n{values.size}_{kind}"


def _two_price_counts(tracer, fn, args, kwargs, result):
    values = _profile_values(_bound(fn, args, kwargs)["profile"])
    yield "candidates", np.unique(np.concatenate(([0.0], values))).size


def _rsol_counts(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    n = _profile_values(a["profile"]).size
    yield "masks", (1 << n) if a["mode"] == "exact" else a["reps"]


def _rows_counts(tracer, fn, args, kwargs, result):
    yield "rows", np.shape(_bound(fn, args, kwargs)["V"])[0]


def _estimate_label(tracer, fn, args, kwargs):
    mech = _bound(fn, args, kwargs)["mechanism"]
    return mech if isinstance(mech, str) else "custom"


def _estimate_counts(tracer, fn, args, kwargs, result):
    yield "rows", _bound(fn, args, kwargs)["reps"]


def _iron_counts(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    key = (a["d"].name, a["grid"], a["eps"])
    if key in tracer.ironed:
        yield "repeat_calls", 1
    tracer.ironed.add(key)


def _hull_counts(tracer, fn, args, kwargs, result):
    yield "ironing.hull_vertices", len(result)


def _mech_label(tracer, fn, args, kwargs):
    return _bound(fn, args, kwargs)["mech"].name


def _op_label(tracer, fn, args, kwargs):
    return tracer.op_label


# (module, attribute, metric name, kind, label fn, count fn). Several modules
# import the same function; each imported name is patched so that every caller
# is seen. "count" targets record calls only: they run thousands of times per op.
TARGETS = [
    ("simlab", "experiment_lb43", "simlab.experiment_lb43", "span", None, None),
    ("simlab", "experiment_surplus_gap", "simlab.experiment_surplus_gap", "span", None, None),
    ("simlab", "experiment_rsol_ratio", "simlab.experiment_rsol_ratio", "span", None, None),
    ("simlab", "experiment_thmub", "simlab.experiment_thmub", "span", None, None),
    ("simlab", "rows_to_csv", "simlab.rows_to_csv", "span", None, None),
    ("simlab", "estimate", "simlab.estimate", "span", _estimate_label, _estimate_counts),
    ("simlab", "expected_rsol", "mechanisms.expected_rsol", "span", None, _rsol_counts),
    ("mechanisms", "expected_rsol", "mechanisms.expected_rsol", "span", None, _rsol_counts),
    ("simlab", "_bayes_rule", "mechanisms._bayes_rule", "span", None, _rows_counts),
    ("audit", "_bayes_rule", "mechanisms._bayes_rule", "span", None, _rows_counts),
    ("mechanisms", "_bayes_rule", "mechanisms._bayes_rule", "span", None, _rows_counts),
    ("benchmark", "expected_pq_lottery", "mechanisms.expected_pq_lottery", "count", None, None),
    ("simlab", "expected_log_price", "mechanisms.expected_log_price", "span", None, None),
    ("mechanisms", "expected_log_price", "mechanisms.expected_log_price", "span", None, None),
    ("mechanisms", "bayes_optimal_with_costs", "mechanisms.bayes_optimal_with_costs", "span", None, None),
    ("simlab", "two_price_benchmark", "benchmark.two_price_benchmark", "span", _two_price_label, _two_price_counts),
    ("benchmark", "two_price_benchmark", "benchmark.two_price_benchmark", "span", _two_price_label, _two_price_counts),
    ("benchmark", "optimal_p_lottery", "benchmark.optimal_p_lottery", "span", None, None),
    ("simlab", "iron", "ironing.iron", "span", None, _iron_counts),
    ("audit", "iron", "ironing.iron", "span", None, _iron_counts),
    ("ironing", "iron", "ironing.iron", "span", None, _iron_counts),
    ("ironing", "lower_convex_hull", "ironing.lower_convex_hull", "span", None, _hull_counts),
    ("audit", "check_dsic", "audit.check_dsic", "span", _mech_label, None),
    ("audit", "extract_interim_rule", "audit.extract_interim_rule", "span", _mech_label, None),
    ("audit", "check_payment_identity", "audit.check_payment_identity", "span", _op_label, None),
    ("audit", "verify_utility_identity", "audit.verify_utility_identity", "span", None, None),
    ("audit", "verify_ironing_dominance", "audit.verify_ironing_dominance", "span", None, None),
    ("audit", "balanced_sampling_probe", "audit.balanced_sampling_probe", "span", None, None),
    ("audit", "audit_profiles", "distributions.sample", "span", None, None),
    ("audit", "sample_profile", "distributions.sample", "span", None, None),
    ("distributions", "sample_profile", "distributions.sample", "span", None, None),
    ("simlab", "mc_eval", "common.mc_eval", "span", None, None),
    ("audit", "mc_eval", "common.mc_eval", "span", None, None),
    ("mechanisms", "mc_eval", "common.mc_eval", "span", None, None),
    ("common", "mc_eval", "common.mc_eval", "span", None, None),
    ("simlab", "substream", "common.substream", "count", None, None),
    ("audit", "substream", "common.substream", "count", None, None),
    ("mechanisms", "substream", "common.substream", "count", None, None),
    ("distributions", "substream", "common.substream", "count", None, None),
    ("common", "substream", "common.substream", "count", None, None),
]


class Tracer:
    """Collects spans and counters for one run, phase by phase.

    A phase is the set-up or one traced pass. Metrics are derived per phase,
    so a pass's figures do not depend on how many passes ran before it.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.stack: list[int] = []
        self.next_id = 0
        self.phase = "setup"
        self.op_id = -1
        self.op_label = ""
        self.ironed: set = set()
        self.missing: list[str] = []
        self._saved: list[tuple] = []

    # -- installing -------------------------------------------------------

    def install(self, instance_targets=()):
        """Patch every module target, plus (object, attribute, name, label)
        instance targets such as a mechanism's bound interim method."""
        self.missing = []
        for module_name, attr, name, kind, label_fn, count_fn in TARGETS:
            module = importlib.import_module(f"burnlab.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = (self._span_wrapper(original, name, label_fn, count_fn)
                       if kind == "span" else self._count_wrapper(original, name))
            self._patch(module, attr, wrapper)
        for obj, attr, name, label in instance_targets:
            self._patch(obj, attr, self._span_wrapper(
                getattr(obj, attr), name, lambda *_a, _l=label: _l, _bids_counts))

    def uninstall(self):
        for obj, attr, original, owned in reversed(self._saved):
            if owned:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)
        self._saved = []

    def _patch(self, obj, attr, wrapper):
        owned = attr in vars(obj)
        self._saved.append((obj, attr, getattr(obj, attr), owned))
        setattr(obj, attr, wrapper)

    def _span_wrapper(self, fn, name, label_fn, count_fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = label_fn(tracer, fn, args, kwargs) if label_fn else None
            sid = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans.append((sid, parent, name, label, tracer.op_id,
                                     tracer.phase, start, end))
            if count_fn:
                counts = tracer.counts[tracer.phase]
                for stat, value in count_fn(tracer, fn, args, kwargs, result):
                    if "." in stat:  # a full metric name of its own
                        counts[stat] += value
                        continue
                    counts[f"{name}.{stat}"] += value
                    if label is not None:
                        counts[f"{name}.{label}.{stat}"] += value
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        tracer = self
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[tracer.phase][key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- ops and phases ---------------------------------------------------

    def begin_phase(self, phase: str):
        self.phase = phase
        self.ironed = set()

    def begin_op(self, op_id: int, label: str) -> int:
        self.op_id = op_id
        self.op_label = label
        sid = self.next_id
        self.next_id += 1
        self.stack.append(sid)
        return sid

    def end_op(self, sid: int, start: float, end: float):
        self.stack.pop()
        self.spans.append((sid, None, "op", self.op_label, self.op_id,
                           self.phase, start, end))
        self.op_id = -1
        self.op_label = ""

    # -- metrics ----------------------------------------------------------

    def phase_metrics(self, phase: str) -> dict[str, float]:
        """calls, busy_s and self_s per span name and per (name, label),
        plus the counters of the phase."""
        spans = [s for s in self.spans if s[5] == phase]
        by_id = {s[0]: s for s in spans}
        child_time = Counter()
        for s in spans:
            if s[1] is not None:
                child_time[s[1]] += s[7] - s[6]
        out: dict[str, float] = Counter()
        for sid, parent, name, label, _op, _phase, start, end in spans:
            if name == "op":
                continue
            keys = [name] if label is None else [name, f"{name}.{label}"]
            outermost = True
            p = parent
            while p is not None:
                if by_id[p][2] == name:
                    outermost = False
                    break
                p = by_id[p][1]
            for key in keys:
                out[f"{key}.calls"] += 1
                out[f"{key}.self_s"] += (end - start) - child_time[sid]
                if outermost:
                    out[f"{key}.busy_s"] += end - start
        out["trace.spans"] = float(len(spans))
        for key, value in self.counts[phase].items():
            out[key] += value
        return dict(out)

    def write_spans(self, path, t_zero: float):
        with open(path, "w") as fh:
            for sid, parent, name, label, op, phase, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "label": label,
                    "op": op, "phase": phase, "start": start - t_zero,
                    "end": end - t_zero}) + "\n")


def _bids_counts(tracer, fn, args, kwargs, result):
    yield "bids", np.size(args[2] if len(args) > 2 else kwargs["bids"])
