"""Spans around each weylreps module's public entry points, from outside.

``Tracer.install`` replaces each entry point listed in ``SPANS`` with a
wrapper that records one span: name, start, end, parent span and operation
id.  A function is replaced under every name that binds it in a weylreps
module, so ``from .algebra import phase`` inside ``reps``, ``gns``,
``almost_periodic`` and ``verify`` is traced too.  Spans stay in compact
arrays in memory; ``save`` writes them when the run ends.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

import numpy as np


def _mul_sizes(args, result):
    left, right = args
    if type(right) is type(left):
        return len(left) * len(right), len(result)
    return 0, 0


def _len_first(args, result):
    return len(args[0]), 0


def _len_records(args, result):
    records = args[0]
    return (len(records) if isinstance(records, list) else 1), 0


def _len_result(args, result):
    return 0, (len(result) if isinstance(result, list) else 1)


# (span name, module, attribute, sizes(args, result) -> (n_in, n_out))
SPANS = (
    ("algebra.phase", "algebra", "phase", None),
    ("algebra.mul", "algebra", "WeylElement.__mul__", _mul_sizes),
    ("algebra.adjoint", "algebra", "WeylElement.adjoint", None),
    ("algebra.normalise", "algebra", "WeylElement.__init__", None),
    ("states.eval", "states", "StateFunctional.__call__",
     lambda args, result: (len(args[1]), 0)),
    ("states.gram", "states", "gram_matrix", lambda args, result: (result.size, 0)),
    ("states.positivity", "states", "check_positivity", None),
    ("reps.apply", "reps", "apply_U", None),
    ("reps.apply", "reps", "apply_V", None),
    ("reps.apply", "reps", "apply_Q", None),
    ("reps.apply", "reps", "apply_P", None),
    ("reps.apply", "reps", "apply_element", None),
    ("reps.inner", "reps", "inner", None),
    ("gns.inner", "gns", "gns_inner", None),
    ("gns.reduce", "gns", "reduce_position", None),
    ("gns.reduce", "gns", "reduce_momentum", None),
    ("gns.witness", "gns", "eigenvector_witness", None),
    ("gns.equivalence", "gns", "equivalence_check", None),
    ("almost_periodic.evaluate", "almost_periodic", "TrigPolynomial.evaluate_at", _len_first),
    ("almost_periodic.sup_bounds", "almost_periodic", "TrigPolynomial.sup_norm_bounds",
     _len_first),
    ("almost_periodic.mul", "almost_periodic", "TrigPolynomial.__mul__", None),
    ("schrodinger.grid_build", "schrodinger", "gaussian_ground_state", None),
    ("schrodinger.grid_build", "schrodinger", "gaussian_packet", None),
    ("schrodinger.grid_build", "schrodinger", "superpose", None),
    ("schrodinger.charfn", "schrodinger", "characteristic_function", None),
    ("schrodinger.dispersion", "schrodinger", "dispersion_product", None),
    ("schrodinger.mean_quadrature", "schrodinger", "mean_quadrature", None),
    ("serialize.parse", "serialize", "element_from_records", _len_records),
    ("serialize.parse", "serialize", "trig_from_records", _len_records),
    ("serialize.parse", "serialize", "vector_from_records", _len_records),
    ("serialize.parse", "serialize", "state_from_record", _len_records),
    ("serialize.parse", "serialize", "parse_state_arg", _len_records),
    ("serialize.emit", "serialize", "element_to_records", _len_result),
    ("serialize.emit", "serialize", "trig_to_records", _len_result),
    ("serialize.emit", "serialize", "vector_to_records", _len_result),
    ("serialize.emit", "serialize", "state_to_record", _len_result),
    ("serialize.emit", "serialize", "scan_to_csv", lambda args, result: (0, len(args[0]))),
    ("cli.main", "cli", "main", None),
)

# Counted per call without a span; the time stays in the caller's self time.
NONZERO_COUNTER = ("states", "StateFunctional.generator_value")

SUITES = ("algebra", "reps", "gns", "ap", "oracle")


def _resolve(module: str, attribute: str):
    owner = importlib.import_module(f"weylreps.{module}")
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    FIELDS = ("name", "start", "end", "parent", "op", "n_in", "n_out")

    def __init__(self):
        self.names: list[str] = []
        self.columns = {"name": array("i"), "start": array("d"), "end": array("d"),
                        "parent": array("i"), "op": array("i"),
                        "n_in": array("q"), "n_out": array("q")}
        self.stack = [-1]
        self.op = -1
        self.nonzero: dict[int, list[int]] = {}  # op -> [generator values, nonzero]
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _span(self, name: str, fn, sizes):
        nid = self._name_id(name)
        cols = self.columns
        names, starts, ends, parents = cols["name"], cols["start"], cols["end"], cols["parent"]
        ops, n_in, n_out = cols["op"], cols["n_in"], cols["n_out"]
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op)
            n_in.append(0)
            n_out.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if sizes is not None:
                n_in[idx], n_out[idx] = sizes(args, result)
            return result

        return wrapper

    def _counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            value = fn(*args)
            tally = self.nonzero.setdefault(self.op, [0, 0])
            tally[0] += 1
            tally[1] += value != 0
            return value

        return wrapper

    def _replace(self, owner, name: str, wrapper) -> None:
        """Bind ``wrapper`` wherever ``owner.name`` is bound in weylreps."""
        original = getattr(owner, name)
        if isinstance(owner, type):
            holders = [owner]
        else:
            holders = [m for key, m in sorted(sys.modules.items())
                       if key == "weylreps" or key.startswith("weylreps.")]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    self._undo.append((holder, key, original))

    def install(self) -> None:
        for name, module, attribute, sizes in SPANS:
            owner, attr = _resolve(module, attribute)
            self._replace(owner, attr, self._span(name, getattr(owner, attr), sizes))
        owner, attr = _resolve(*NONZERO_COUNTER)
        self._replace(owner, attr, self._counter(getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    # -- results -----------------------------------------------------------

    def dump(self) -> dict:
        return {"names": self.names,
                "columns": {k: v.tolist() for k, v in self.columns.items()},
                "nonzero": {str(k): v for k, v in self.nonzero.items()}}

    def merge(self, dump: dict, op: int) -> None:
        """Append the spans of a child process, as operation ``op``."""
        offset = len(self.columns["start"])
        remap = [self._name_id(n) for n in dump["names"]]
        cols = dump["columns"]
        self.columns["name"].extend(remap[i] for i in cols["name"])
        self.columns["parent"].extend(p + offset if p >= 0 else -1 for p in cols["parent"])
        self.columns["op"].extend(op for _ in cols["op"])
        for key in ("start", "end", "n_in", "n_out"):
            self.columns[key].extend(cols[key])
        for tally in dump["nonzero"].values():
            mine = self.nonzero.setdefault(op, [0, 0])
            mine[0] += tally[0]
            mine[1] += tally[1]

    def arrays(self) -> dict:
        cols = {k: np.frombuffer(v, dtype=v.typecode) if len(v) else np.zeros(0)
                for k, v in self.columns.items()}
        duration = cols["end"] - cols["start"]
        covered = np.zeros(len(duration))
        child = cols["parent"] >= 0
        np.add.at(covered, cols["parent"][child].astype(int), duration[child])
        cols["duration"] = duration
        cols["self"] = duration - covered
        return cols

    def save(self, path) -> None:
        cols = self.arrays()
        np.savez(path, names=np.array(self.names or [""]),
                 **{k: cols[k] for k in self.FIELDS})


def layer_totals(tracer: Tracer, ops=None) -> dict:
    """Per span name: calls, self and wall seconds, n_in and n_out, over ``ops``."""
    cols = tracer.arrays()
    keep = np.ones(len(cols["self"]), dtype=bool)
    if ops is not None:
        keep = np.isin(cols["op"], list(ops))
    totals = {}
    for nid, name in enumerate(tracer.names):
        mask = keep & (cols["name"] == nid)
        totals[name] = {"calls": int(mask.sum()), "self": float(cols["self"][mask].sum()),
                        "wall": float(cols["duration"][mask].sum()),
                        "n_in": int(cols["n_in"][mask].sum()),
                        "n_out": int(cols["n_out"][mask].sum())}
    return totals


def sup_bound_terms(tracer: Tracer, op: int) -> tuple[int, int]:
    """(terms evaluated under sup_norm_bounds, 1024 x terms of those polynomials)."""
    cols = tracer.arrays()
    names = tracer.names
    if "almost_periodic.sup_bounds" not in names:
        return 0, 0
    sup_id = names.index("almost_periodic.sup_bounds")
    eval_id = names.index("almost_periodic.evaluate")
    in_op = cols["op"] == op
    sup = in_op & (cols["name"] == sup_id)
    evaluate = in_op & (cols["name"] == eval_id)
    under = np.isin(cols["parent"][evaluate], np.nonzero(sup)[0])
    return int(cols["n_in"][evaluate][under].sum()), int(1024 * cols["n_in"][sup].sum())


SELF_TIMED = ("algebra.mul", "algebra.adjoint", "algebra.normalise", "algebra.phase",
              "states.eval", "states.gram", "states.positivity", "reps.apply", "reps.inner",
              "gns.inner", "gns.reduce", "gns.witness", "gns.equivalence",
              "almost_periodic.evaluate", "almost_periodic.sup_bounds", "almost_periodic.mul",
              "schrodinger.charfn", "schrodinger.dispersion", "schrodinger.mean_quadrature",
              "serialize.parse", "serialize.emit", "cli.main")
CALLS_COUNTED = ("algebra.mul", "algebra.phase", "states.eval", "reps.apply", "reps.inner",
                 "gns.inner", "gns.reduce", "almost_periodic.evaluate", "schrodinger.charfn")


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Span-derived per-layer metrics per traced operation: name -> (value, unit)."""
    totals = layer_totals(tracer)
    empty = {"calls": 0, "self": 0.0, "wall": 0.0, "n_in": 0, "n_out": 0}

    def get(span):
        return totals.get(span, empty)

    metrics = {f"{span}_self_s": (get(span)["self"] / n_ops, "s/op") for span in SELF_TIMED}
    metrics.update({f"{span}_calls": (get(span)["calls"] / n_ops, "count/op")
                    for span in CALLS_COUNTED})
    mul = get("algebra.mul")
    seen = sum(v[0] for v in tracer.nonzero.values())
    nonzero = sum(v[1] for v in tracer.nonzero.values())
    metrics.update({
        "algebra.mul_term_pairs": (mul["n_in"] / n_ops, "count/op"),
        "algebra.merge_ratio": (mul["n_out"] / mul["n_in"] if mul["n_in"] else 0.0, "ratio"),
        "states.eval_terms": (get("states.eval")["n_in"] / n_ops, "count/op"),
        "states.nonzero_term_ratio": (nonzero / seen if seen else 0.0, "ratio"),
        "states.gram_cells": (get("states.gram")["n_in"] / n_ops, "count/op"),
        "almost_periodic.evaluate_terms": (
            get("almost_periodic.evaluate")["n_in"] / n_ops, "count/op"),
        "schrodinger.grid_build_s": (get("schrodinger.grid_build")["self"] / n_ops, "s/op"),
        "serialize.records_in": (get("serialize.parse")["n_in"] / n_ops, "count/op"),
        "serialize.records_out": (get("serialize.emit")["n_out"] / n_ops, "count/op"),
    })
    return metrics


def time_suites(seed: int) -> dict:
    """Wall seconds of ``run_suites([name], seed)`` for each suite, untraced."""
    from weylreps.verify import run_suites

    out = {}
    for suite in SUITES:
        start = time.perf_counter()
        run_suites([suite], seed)
        out[f"verify.{suite}_s"] = time.perf_counter() - start
    return out


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
