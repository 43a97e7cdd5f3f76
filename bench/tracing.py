"""Span recorder for the traced benchmark run.

The recorder wraps, from outside the package, every public function and
public method of the instrumented modules, plus the batch closures that
``shepherd.shepherd_env`` attaches to the environments it returns.  Each call
becomes a span: name, start, end, parent.  Nothing under ``src/`` changes.

Spans live in per-thread buffers (``--sweep`` runs ``simulate`` on pool
threads), so recording takes no lock.  A span opened on a thread whose own
stack is empty is a pool-thread root: its parent is the span the main thread
has open at that moment, i.e. the ``simulate`` command that launched the pool.
Buffers stay in memory until :meth:`Tracer.dump` writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import threading
import time
from array import array
from dataclasses import replace

import numpy as np

MODULES = ("dynamics", "environment", "shepherd", "convex_sets", "offline",
           "metrics", "cli", "svgplot")
_LOCAL_BITS = 32


class _Buffer:
    """Spans opened on one thread; only that thread appends to it."""

    def __init__(self, index: int):
        self.index = index
        self.name = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.stack: list[int] = []
        self.extras: dict[int, dict] = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._main = self._buffer()

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self._names)
                self._names.append(name)
            return self._name_ids[name]

    def begin(self, name_id: int) -> tuple[_Buffer, int]:
        buf = self._buffer()
        idx = len(buf.t0)
        if buf.stack:
            parent = (buf.index << _LOCAL_BITS) | buf.stack[-1]
        elif buf is not self._main and self._main.stack:
            # Pool-thread root: attribute it to the span the main thread has
            # open, which is blocked waiting on the pool.
            parent = (self._main.index << _LOCAL_BITS) | self._main.stack[-1]
        else:
            parent = -1
        buf.name.append(name_id)
        buf.parent.append(parent)
        buf.t1.append(0.0)
        buf.stack.append(idx)
        buf.t0.append(time.perf_counter())
        return buf, idx

    def end(self, token: tuple[_Buffer, int]) -> None:
        t1 = time.perf_counter()
        buf, idx = token
        buf.t1[idx] = t1
        buf.stack.pop()

    def annotate(self, token: tuple[_Buffer, int], **extras) -> None:
        buf, idx = token
        buf.extras.setdefault(idx, {}).update(extras)

    # -- instrumentation ---------------------------------------------------

    def _wrap(self, name: str, fn, probe=None):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = tracer.begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(token)
            if probe is not None:
                probe(tracer, token, args, kwargs, out)
            return out

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package: str = "saddlesim") -> None:
        """Wrap the public functions and methods of every instrumented module
        and rebind the names other modules imported directly."""
        wrapped: dict[int, object] = {}
        mods = [importlib.import_module(f"{package}.{name}") for name in MODULES]
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    new = self._wrap(f"{short}.{attr}", obj, _PROBES.get(f"{short}.{attr}"))
                    if attr == "shepherd_env":
                        new = self._wrap_env_factory(new)
                    wrapped[id(obj)] = new
                    self._patch(mod, attr, new)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self._wrap(f"{short}.{attr}.{meth}", fn))
        # `from .dynamics import simulate` and the like bind the original
        # function into the importer's namespace; point those at the wrapper.
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                new = wrapped.get(id(obj))
                if new is not None:
                    self._patch(mod, attr, new)

    def _wrap_env_factory(self, factory):
        tracer = self

        @functools.wraps(factory)
        def shepherd_env(*args, **kwargs):
            env = factory(*args, **kwargs)
            return replace(
                env,
                batch_evaluate=tracer._wrap("shepherd.batch_evaluate", env.batch_evaluate),
                batch_constraints=tracer._wrap("shepherd.batch_constraints", env.batch_constraints))

        return shepherd_env

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- analysis ----------------------------------------------------------

    def spans(self) -> dict:
        """All spans as flat arrays; ``parent`` holds array positions."""
        offsets = np.cumsum([0] + [len(b.t0) for b in self._buffers])
        name = np.concatenate([np.frombuffer(b.name, dtype=np.int32) for b in self._buffers])
        t0 = np.concatenate([np.frombuffer(b.t0, dtype=float) for b in self._buffers])
        t1 = np.concatenate([np.frombuffer(b.t1, dtype=float) for b in self._buffers])
        raw = np.concatenate([np.frombuffer(b.parent, dtype=np.int64) for b in self._buffers])
        thread = np.concatenate([np.full(len(b.t0), b.index, dtype=np.int32)
                                 for b in self._buffers])
        parent = np.full(raw.shape, -1, dtype=np.int64)
        has = raw >= 0
        parent[has] = offsets[raw[has] >> _LOCAL_BITS] + (raw[has] & ((1 << _LOCAL_BITS) - 1))
        extras = {int(offsets[b.index] + i): e for b in self._buffers for i, e in b.extras.items()}
        return {"names": list(self._names), "name": name, "t0": t0, "t1": t1,
                "parent": parent, "thread": thread, "extras": extras}

    def dump(self, path, spans: dict) -> None:
        """Write the recorded spans (compressed arrays plus a JSON side table)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path, name=spans["name"], t0=spans["t0"], t1=spans["t1"],
            parent=spans["parent"], thread=spans["thread"],
            names=np.array(json.dumps(spans["names"])),
            extras=np.array(json.dumps({str(k): v for k, v in spans["extras"].items()})),
        )


# ---------------------------------------------------------------------------
# Probes: counts taken at the layer boundary, attached to the span.
# ---------------------------------------------------------------------------

def _probe_simulate(tracer, token, args, kwargs, log):
    tracer.annotate(token, steps=int(round(log.T / log.h_eff)), mode=log.config.mode)


def _probe_csv(tracer, token, args, kwargs, out):
    path, log = args[0], args[1]
    tracer.annotate(token, rows=int(log.t.shape[0]), bytes=os.path.getsize(path))


def _probe_plot(tracer, token, args, kwargs, out):
    tracer.annotate(token, bytes=os.path.getsize(args[0]))


def _probe_offline(tracer, token, args, kwargs, sol):
    d = sol.diagnostics
    tracer.annotate(token, iterations=int(d.get("iterations", 0)),
                    converged=bool(d.get("converged", False)),
                    kkt_stationarity=float(d.get("kkt_stationarity", 0.0)),
                    offline_cost=float(sol.offline_cost))


_PROBES = {
    "dynamics.simulate": _probe_simulate,
    "cli.write_trajectory_csv": _probe_csv,
    "svgplot.write_plot": _probe_plot,
    "offline.solve_offline": _probe_offline,
}


def _union_length(intervals) -> float:
    total, end = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def _descendants(parent: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The spans in ``mask`` and every span below them."""
    out = mask.copy()
    has = parent >= 0
    while True:
        new = has & ~out
        new[new] = out[parent[new]]
        if not new.any():
            return out
        out |= new


def analyse(spans: dict) -> dict:
    """Per-span self time and the per-name aggregates the layer metrics use.

    Self time is a span's duration minus the part of it covered by its
    children.  Children on the span's own thread run one after another, so
    their durations add; pool-thread children overlap each other, so their
    cover is the length of the union of their intervals.
    """
    names, name, t0, t1 = spans["names"], spans["name"], spans["t0"], spans["t1"]
    parent, thread = spans["parent"], spans["thread"]
    dur = t1 - t0
    n = dur.shape[0]
    has = parent >= 0
    same = np.zeros(n, dtype=bool)
    same[has] = thread[has] == thread[parent[has]]
    cover = np.bincount(parent[same], weights=dur[same], minlength=n)
    foreign = np.flatnonzero(has & ~same)
    by_parent: dict[int, list] = {}
    for i in foreign:
        by_parent.setdefault(int(parent[i]), []).append((t0[i], t1[i]))
    # Pool-thread spans are weighted by cover / summed duration of the pool
    # roots under their launching span, so that self times add up to the
    # commands' wall time even while the pool threads overlap.
    weight = np.ones(n)
    for p, iv in by_parent.items():
        union = _union_length(iv)
        busy = sum(b - a for a, b in iv)
        cover[p] += union
        launched = np.zeros(n, dtype=bool)
        launched[foreign[parent[foreign] == p]] = True
        weight[_descendants(parent, launched)] = union / busy if busy > 0 else 1.0
    self_time = dur - cover

    agg = {}
    for nid, label in enumerate(names):
        sel = name == nid
        agg[label] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                      "self_s": float(self_time[sel].sum())}
    roots = parent < 0          # one per command: its cli.main call
    return {"dur": dur, "agg": agg, "launchers": sorted(by_parent),
            "self_sum_s": float((self_time * weight).sum()),
            "wall_s": float(dur[roots].sum())}


LAYER_TIMES = ("convex_sets.Box.project_field", "convex_sets.Box.project_point",
               "convex_sets.NonnegativeOrthant.project_field",
               "convex_sets.NonnegativeOrthant.project_point")


def layer_metrics(spans: dict, an: dict, repeats: int) -> dict:
    """Per-layer figures, per traced repeat (counts and times are averages)."""
    agg, names, name, parent = an["agg"], spans["names"], spans["name"], spans["parent"]
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    eval_full = "environment.Environment.eval_full"

    def get(label, key):
        return agg.get(label, zero)[key] / repeats

    def per_call_us(label):
        calls = agg.get(label, zero)["calls"]
        return 1e6 * agg.get(label, zero)["s"] / calls if calls else 0.0

    def mask(label):
        return name == names.index(label) if label in names else np.zeros(name.size, dtype=bool)

    def extras(label, key):
        return [spans["extras"].get(int(i), {}).get(key) for i in np.flatnonzero(mask(label))]

    out = {}
    for label in ("dynamics.simulate", "shepherd.basis_eval", "shepherd.batch_evaluate",
                  "shepherd.batch_constraints", "shepherd.generate_sheep_paths",
                  "offline.check_viability", "cli.write_trajectory_csv", "svgplot.write_plot",
                  *LAYER_TIMES):
        out[f"{label}.calls"] = get(label, "calls")
        out[f"{label}.s"] = get(label, "s")
    for label in LAYER_TIMES:
        out[f"{label}.us_per_call"] = per_call_us(label)
    out["environment.eval_full.calls"] = get(eval_full, "calls")
    out["environment.eval_full.self_s"] = get(eval_full, "self_s")
    out["environment.eval_full.us_per_call"] = per_call_us(eval_full)
    out["dynamics.simulate.self_s"] = get("dynamics.simulate", "self_s")

    sims = np.flatnonzero(mask("dynamics.simulate"))
    modes = extras("dynamics.simulate", "mode")
    steps = extras("dynamics.simulate", "steps")
    for mode in ("feasibility", "saddle"):
        idx = [i for i, m in zip(sims, modes) if m == mode]
        n_steps = sum(s for s, m in zip(steps, modes) if m == mode)
        out[f"dynamics.us_per_step.{mode}"] = 1e6 * float(an["dur"][idx].sum()) / n_steps if n_steps else 0.0

    out["offline.solve_offline.s"] = get("offline.solve_offline", "s")
    out["offline.solve_offline.self_s"] = get("offline.solve_offline", "self_s")
    for key in ("iterations", "converged", "kkt_stationarity", "offline_cost"):
        vals = [float(v) for v in extras("offline.solve_offline", key) if v is not None]
        out[f"offline.{key}"] = sum(vals) / len(vals) if vals else 0.0
    out["offline.estimate_K.s"] = get("offline.estimate_K", "s")
    under_k = _descendants(parent, mask("offline.estimate_K"))
    out["offline.estimate_K.eval_calls"] = float((under_k & mask(eval_full)).sum()) / repeats
    out["cli.cmd_offline.s"] = get("cli.cmd_offline", "s")

    out["cli.csv_rows"] = sum(extras("cli.write_trajectory_csv", "rows")) / repeats
    out["cli.csv_bytes"] = sum(extras("cli.write_trajectory_csv", "bytes")) / repeats
    out["svgplot.bytes"] = sum(extras("svgplot.write_plot", "bytes")) / repeats
    out["cli.cmd_report.s"] = get("cli.cmd_report", "s")
    out["cli.cmd_report.self_s"] = get("cli.cmd_report", "self_s")
    out["metrics.fit.s"] = get("metrics.fit", "s")
    out["metrics.regret.s"] = get("metrics.regret", "s")

    # Sweep concurrency: simulate time on the pool threads over the wall time
    # of the simulate commands that launched them.
    launchers = an["launchers"]
    pooled = sims[np.isin(parent[sims], launchers)]
    wall = float(an["dur"][launchers].sum())
    out["cli.sweep.concurrency"] = float(an["dur"][pooled].sum()) / wall if wall else 0.0
    out["trace.wall_s"] = an["wall_s"] / repeats
    out["trace.self_sum_s"] = an["self_sum_s"] / repeats
    return out
