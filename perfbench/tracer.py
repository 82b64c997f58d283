"""Spans around the public functions of each ctxve layer, installed from the
benchmark without editing the library.

:meth:`Tracer.install` replaces every reference to a traced function inside
the ``ctxve`` modules (names imported with ``from .tables import product``
are separate references, so each module's copy is patched) and every traced
method on its class; :meth:`Tracer.uninstall` puts the originals back.

A span is (name, start, end, parent, query id).  Spans are kept in memory in
flat integer arrays and written out when the run ends.  A layer's self time
is its span's duration minus the time its child spans cover.  Spans and
counts are attributed to the engine whose query caused them through the
query id; work done while setting up has query id -1.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array
from collections import defaultdict

import numpy as np

import ctxve
from ctxve import bench, engine_cve, engine_tve, engine_ve, network, orders, posterior, structure, tables

# (span name, owner, attribute): the owner is a module or a class.
TRACED = [
    ("tables.product", tables, "product"),
    ("tables.sum_out", tables, "sum_out"),
    ("tables.add_tables", tables, "add_tables"),
    ("tables.set_table", tables, "set_table"),
    ("tables.multiply_all_sum_out", tables, "multiply_all_sum_out"),
    ("orders.min_size_order", orders, "min_size_order"),
    ("posterior.normalize_posterior", posterior, "normalize_posterior"),
    ("posterior.extract_posterior", posterior, "extract_posterior"),
    ("posterior.tile_confactors", posterior, "tile_confactors"),
    ("engine_ve.begin", engine_ve.TabularVE, "begin"),
    ("engine_ve.eliminate", engine_ve.TabularVE, "eliminate"),
    ("engine_ve.finish", engine_ve.TabularVE, "finish"),
    ("engine_cve.begin", engine_cve.ContextualVE, "begin"),
    ("engine_cve.eliminate", engine_cve.ContextualVE, "eliminate"),
    ("engine_cve.finish", engine_cve.ContextualVE, "finish"),
    ("engine_cve.incorporate_evidence", engine_cve, "incorporate_evidence"),
    ("engine_cve.sum_out_body_occurrences", engine_cve, "sum_out_body_occurrences"),
    ("engine_tve.begin", engine_tve.TreeVE, "begin"),
    ("engine_tve.eliminate", engine_tve.TreeVE, "eliminate"),
    ("engine_tve.finish", engine_tve.TreeVE, "finish"),
    ("engine_tve.tve_multiply", engine_tve, "tve_multiply"),
    ("network.tabular_factor", network.ContextualBeliefNetwork, "tabular_factor"),
]
MODULES = [ctxve, bench, engine_cve, engine_tve, engine_ve, network, orders, posterior, structure, tables]


class Tracer:
    """Records spans and per-engine counts: explicit spans through
    :meth:`span`, and the traced functions' spans while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.qid = array("q")
        self._stack: list[int] = []
        self.query = -1
        self.engine_of: dict[int, str] = {}
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.qid.append(self.query)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def begin_query(self, qid: int, engine: str) -> None:
        self.query = qid
        self.engine_of[qid] = engine

    def end_query(self) -> None:
        self.query = -1

    def count(self, metric: str, n: int = 1) -> None:
        self.counts[(self.engine_of.get(self.query, "setup"), metric)] += n

    # -- installation --------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        open_, close, count = self._open, self._close, self.count
        count_entries = name == "tables.product"

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if count_entries:
                count("tables.product.entries", result.size)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for name, owner, attr in TRACED:
            original = getattr(owner, attr)
            if isinstance(owner, type):
                if name == "network.tabular_factor":
                    self._patch(owner, attr, self._wrap_tabular_factor(name, original))
                else:
                    self._patch(owner, attr, self._wrap(name, original))
                continue
            wrapper = self._wrap(name, original)
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        compatible_ = tables.compatible
        count = self.count

        def counted_compatible(c1, c2):
            ok = compatible_(c1, c2)
            count("tables.compatible.calls")
            if ok:
                count("tables.compatible.true")
            return ok

        for module in MODULES:
            for key, value in list(vars(module).items()):
                if value is compatible_:
                    self._patch(module, key, counted_compatible)

    def _wrap_tabular_factor(self, name: str, original):
        traced = self._wrap(name, original)
        count = self.count

        def tabular_factor(net, x):
            if x not in net._tabular_cache:
                count("network.tabular_factor.cold_calls")
            return traced(net, x)

        return tabular_factor

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[tuple[str, str], float]:
        """Summed self time in seconds by (engine, span name).  Also fills
        in each span's call count per engine, as ``<span name>.calls``."""
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        qid = np.frombuffer(self.qid, dtype=np.int64)
        dur = end - start
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        own = dur - covered
        out: dict[tuple[str, str], float] = defaultdict(float)
        engines = np.array(
            [self.engine_of.get(int(q), "setup") for q in range(-1, max(self.engine_of, default=-1) + 1)],
            dtype=object,
        )
        engine = engines[qid + 1]
        for nid, label in enumerate(self.names):
            mask = name == nid
            if not mask.any():
                continue
            for e in set(engine[mask]):
                sel = mask & (engine == e)
                out[(e, label)] += float(own[sel].sum()) / 1e9
                self.counts[(e, label + ".calls")] = int(sel.sum())
        return dict(out)

    def write(self, path) -> None:
        """Write the spans as JSON lines: a header naming the spans and the
        query engines, then one ``[name, start_ns, end_ns, parent, qid]`` row
        per span."""
        with open(path, "w", encoding="utf-8") as fh:
            header = {"names": self.names, "engine_of": {str(k): v for k, v in self.engine_of.items()}}
            fh.write(json.dumps(header) + "\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.qid):
                fh.write("[%d,%d,%d,%d,%d]\n" % row)
