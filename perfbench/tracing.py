"""Spans recorded around calls into shearstab's public functions.

The tracer never edits the package: `install` looks up each traced public
function and rebinds every reference to it that a shearstab module holds,
whether as a module-level name (``spectral.resolvent_numbers``) or as a value
of a module-level table (the assembler table that ``resolvent_sample`` reads).
Calls made through those references then run inside a span.

Spans are kept in memory.  Each one has a name, a start and end on the
``time.perf_counter`` clock, the id of the span that caused it, the thread it
ran on and the run id.  A call made on a pool thread whose own stack is
empty is parented to the innermost span open on the installing thread, which
is the driver call waiting on the pool.

`summarize` adds one ``rung`` span per grid degree inside every ladder span
(a rung starts at the ladder's ``build_grid`` call), computes self times
(a span's duration minus the union of its children's intervals) and folds
them into per-layer numbers.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from contextlib import contextmanager

__all__ = ["Tracer", "install", "summarize"]


def _grid_attrs(args, kwargs, out):
    return {"n": out.n}


def _op_attrs(args, kwargs, out):
    return {"kind": out.kind, "n": out.grid.n}


def _numbers_attrs(args, kwargs, out):
    op = args[0]
    return {"bc": op.bc, "kind": op.kind, "n": op.grid.n, "singular": bool(out["singular"])}


def _eig_attrs(args, kwargs, out):
    op = args[0]
    return {"kind": op.kind, "n": op.grid.n}


def _sample_attrs(args, kwargs, out):
    return {
        "n_start": out.n_start,
        "n_used": out.n_used,
        "converged": bool(out.converged and not out.singular),
    }


def _floor_attrs(args, kwargs, out):
    return {"n_used": int(out[1]), "converged": bool(out[2])}


def _no_attrs(args, kwargs, out):
    return {}


# (module, public function) -> (span category, attribute reader)
TARGETS = {
    ("chebdiff", "build_grid"): ("layer", _grid_attrs),
    ("profile", "inflection_values"): ("layer", _no_attrs),
    ("profile", "x_of_nu"): ("layer", _no_attrs),
    ("operators", "assemble_certificate_operator"): ("layer", _op_attrs),
    ("operators", "assemble_rayleigh"): ("layer", _op_attrs),
    ("operators", "assemble_rayleigh_shifted"): ("layer", _op_attrs),
    ("operators", "assemble_schrodinger"): ("layer", _op_attrs),
    ("operators", "assemble_orr_sommerfeld"): ("layer", _op_attrs),
    ("airy", "tail_zero_margin"): ("layer", _no_attrs),
    ("spectral", "resolvent_numbers"): ("layer", _numbers_attrs),
    ("spectral", "min_eig_selfadjoint"): ("layer", _eig_attrs),
    ("spectral", "eigenvalues"): ("layer", _eig_attrs),
    ("spectral", "resolvent_sample"): ("ladder", _sample_attrs),
    ("spectral", "eig_floor_ladder"): ("ladder", _floor_attrs),
    ("spectral", "pseudospectrum_grid"): ("driver", _no_attrs),
}


class Tracer:
    """In-memory span recorder shared by all threads of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()

    def _parent_and_stack(self) -> tuple[int | None, list[int]]:
        with self._lock:
            stack = self._stacks.setdefault(threading.get_ident(), [])
            if stack:
                return stack[-1], stack
            home = self._stacks.get(self._home)
            return (home[-1] if home else None), stack

    @contextmanager
    def span(self, name: str, category: str, **attrs):
        parent, stack = self._parent_and_stack()
        record = {
            "id": next(self._ids),
            "parent": parent,
            "name": name,
            "category": category,
            "thread": threading.get_ident(),
            "run": self.run_id,
            "attrs": attrs,
        }
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)


def _wrap(tracer: Tracer, fn, name: str, category: str, describe):
    def traced(*args, **kwargs):
        with tracer.span(name, category) as attrs:
            out = fn(*args, **kwargs)
            try:
                attrs.update(describe(args, kwargs, out))
            except (AttributeError, TypeError, IndexError, KeyError):
                pass
        return out

    traced.__name__ = getattr(fn, "__name__", name)
    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer) -> list[str]:
    """Route every shearstab reference to a traced function through a span.

    Returns the names found; a target the package no longer defines is
    skipped, so the benchmark keeps running across refactors.
    """
    wrappers = {}
    found = []
    for (module, func), (category, describe) in TARGETS.items():
        fn = getattr(sys.modules.get(f"shearstab.{module}"), func, None)
        if callable(fn):
            wrappers[id(fn)] = _wrap(tracer, fn, f"{module}.{func}", category, describe)
            found.append(f"{module}.{func}")
    for modname, mod in list(sys.modules.items()):
        if modname != "shearstab" and not modname.startswith("shearstab."):
            continue
        namespace = vars(mod)
        for attr, value in list(namespace.items()):
            if attr.startswith("__"):
                continue
            if id(value) in wrappers:
                namespace[attr] = wrappers[id(value)]
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if id(entry) in wrappers:
                        value[key] = wrappers[id(entry)]
    return found


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _add_rungs(spans: list[dict], children: dict) -> None:
    """Split each ladder's children into rungs, one per build_grid call."""
    next_id = max((s["id"] for s in spans), default=0) + 1
    for ladder in [s for s in spans if s["category"] == "ladder"]:
        groups: list[list[dict]] = []
        for child in sorted(children.get(ladder["id"], []), key=lambda s: s["start"]):
            if child["name"] == "chebdiff.build_grid" or not groups:
                groups.append([])
            groups[-1].append(child)
        rung_ids = []
        for group in groups:
            rung = {
                "id": next_id,
                "parent": ladder["id"],
                "name": "rung",
                "category": "rung",
                "thread": ladder["thread"],
                "run": ladder["run"],
                "attrs": {"n": group[0]["attrs"].get("n")},
                "start": group[0]["start"],
                "end": max(s["end"] for s in group),
            }
            next_id += 1
            for s in group:
                s["parent"] = rung["id"]
            spans.append(rung)
            rung_ids.append(rung["id"])
        ladder["attrs"]["rungs"] = rung_ids


def summarize(spans: list[dict]) -> dict:
    """Per-layer self times, counts and ladder statistics of one traced pass."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    _add_rungs(spans, children)
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        kids = [(c["start"], c["end"]) for c in children.get(s["id"], [])]
        s["self"] = (s["end"] - s["start"]) - _covered(kids, s["start"], s["end"])

    def self_sum(pred) -> float:
        return sum(s["self"] for s in spans if pred(s))

    def count(pred) -> int:
        return sum(1 for s in spans if pred(s))

    def named(name):
        return lambda s: s["name"] == name

    def assembler(s):
        return s["name"].startswith("operators.assemble_")

    def eig(s):
        return s["name"] in ("spectral.min_eig_selfadjoint", "spectral.eigenvalues")

    ladders = [s for s in spans if s["category"] == "ladder"]
    rungs = [s for s in spans if s["category"] == "rung"]
    ladder_time = sum(s["end"] - s["start"] for s in ladders)
    top_time = sum(
        by_id[s["attrs"]["rungs"][-1]]["end"] - by_id[s["attrs"]["rungs"][-1]]["start"]
        for s in ladders
        if s["attrs"].get("rungs")
    )
    built = {s["attrs"].get("n") for s in spans if s["name"] == "chebdiff.build_grid"}

    out = {
        "chebdiff.build_grid_s": self_sum(named("chebdiff.build_grid")),
        "chebdiff.grids_built": len(built),
        "profile.inflection_s": self_sum(named("profile.inflection_values")),
        "profile.inflection_calls": count(named("profile.inflection_values")),
        "profile.x_of_nu_s": self_sum(named("profile.x_of_nu")),
        "profile.x_of_nu_calls": count(named("profile.x_of_nu")),
        "operators.assemble_s": self_sum(assembler),
        "operators.assemble_calls": count(assembler),
        "spectral.resolvent_numbers_s": self_sum(named("spectral.resolvent_numbers")),
        "spectral.resolvent_numbers_calls": count(named("spectral.resolvent_numbers")),
        "spectral.eig_s": self_sum(eig),
        "spectral.eig_calls": count(eig),
        "spectral.ladders": len(ladders),
        "spectral.rungs": len(rungs),
        "spectral.rungs_per_ladder": len(rungs) / len(ladders) if ladders else 0.0,
        "spectral.converged_frac": (
            sum(bool(s["attrs"].get("converged")) for s in ladders) / len(ladders)
            if ladders
            else 0.0
        ),
        "spectral.top_rung_share": top_time / ladder_time if ladder_time > 0 else 0.0,
        "airy.tail_zero_calls": count(named("airy.tail_zero_margin")),
        "driver.self_s": self_sum(lambda s: s["category"] == "driver"),
        "sweeps.self_s": self_sum(
            lambda s: s["category"] == "driver" and s["name"].startswith("sweeps.")
        ),
        "cli.self_s": self_sum(named("cli.main")),
        "certify.rayleigh_scan_s": sum(
            s["end"] - s["start"]
            for s in spans
            if s["name"] == "certify.rayleigh_spectrum_scan"
        ),
        "trace.spans": len(spans),
    }
    for kind in ("orr_sommerfeld", "schrodinger", "certificate", "rayleigh"):
        pred = lambda s, k=kind: assembler(s) and s["attrs"].get("kind") == k
        out[f"operators.assemble_s.{kind}"] = self_sum(pred)
        out[f"operators.assemble_calls.{kind}"] = count(pred)
    for bc in ("clamped", "dirichlet"):
        pred = lambda s, b=bc: s["name"] == "spectral.resolvent_numbers" and s["attrs"].get("bc") == b
        out[f"spectral.resolvent_numbers_s.{bc}"] = self_sum(pred)
    out["spectral.dense_s"] = out["spectral.resolvent_numbers_s"] + out["spectral.eig_s"]
    return out
