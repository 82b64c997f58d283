"""Contextual factors and the primitives contextual elimination rests on.

A confactor pairs a body context with a table over disjoint variables; it is
a partial function that only has a value where its body holds.
:func:`split_on_context` splits a body and its tables on a context,
:func:`tile` places tables in the blocks of a dense array where their bodies
hold, and :func:`pairwise` combines the compatible pairs of two confactor
sets (the tree engine's product, its lazy last product of a bucket, and the
group sum of body occurrences);
every engine, the network's dense expansion and the posterior extraction go
through these.  :func:`partition_faults` is the one check that a set of
bodies is mutually exclusive and exhaustive.  Engines track
two bookkeeping sets per confactor: ``for_vars``, the variables whose
conditional-probability family this confactor descends from, and
``pure_for``, the subset for which summing the variable out of the table is
guaranteed to produce an all-ones table (so the confactor can be dropped
when that variable is eliminated).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .tables import (
    Context,
    DomainCatalog,
    Table,
    VariableId,
    _broadcast_to,
    compatible,
    context_union,
    set_table,
)

EMPTY: frozenset[int] = frozenset()


class Confactor:
    """Pair of a body context and a table over disjoint variable sets;
    ``vars`` holds the variables it mentions, the body's then the table's."""

    __slots__ = ("body", "table", "for_vars", "pure_for", "vars")

    def __init__(
        self,
        body: Context,
        table: Table,
        for_vars: frozenset[int] = EMPTY,
        pure_for: frozenset[int] = EMPTY,
    ):
        if not body.isdisjoint(table.vars):
            overlap = set(body.vars()) & set(table.vars)
            raise ValueError(f"body and table share variables: {sorted(overlap)}")
        if not pure_for <= for_vars:
            raise ValueError("pure_for must be a subset of for_vars")
        self.body = body
        self.table = table
        self.for_vars = for_vars
        self.pure_for = pure_for
        # A tuple, not a set: a network holds thousands of confactors, a set
        # costs 216 bytes and a garbage-collector slot each, and the
        # elimination loop's ``in`` test measured no slower on a tuple.
        self.vars = tuple(body._map) + table.vars

    @property
    def size(self) -> int:
        return self.table.size

    def __repr__(self) -> str:
        return f"Confactor(body={self.body!r}, table={self.table!r})"


def value_at(r: Confactor, c: Context) -> float:
    """Value of context ``c`` with respect to ``r``.

    ``c`` must be compatible with the body and assign every table variable.
    """
    if not compatible(r.body, c):
        raise ValueError("confactor not applicable on context")
    idx = []
    for v in r.table.vars:
        val = c.get(v)
        if val is None:
            raise ValueError("context does not determine table")
        idx.append(val)
    return float(r.table.array[tuple(idx)])


def partition_faults(catalog: DomainCatalog, bodies: Sequence[Context]) -> list[str]:
    """Why ``bodies`` are not mutually exclusive and exhaustive over the
    variables they mention; empty iff they are.

    Exhaustiveness is counted exactly: each body covers one cell per
    assignment of the mentioned variables it leaves free, and disjoint
    bodies must cover every cell.
    """
    faults = [
        f"bodies {i} and {j} are compatible (overlapping cover)"
        for (i, a), (j, b) in itertools.combinations(enumerate(bodies), 2)
        if compatible(a, b)
    ]
    mentioned = {v for c in bodies for v in c.vars()}
    space = math.prod(catalog.size(v) for v in mentioned)
    covered = sum(
        math.prod(catalog.size(v) for v in mentioned if v not in c) for c in bodies
    )
    if covered != space:
        faults.append(f"bodies cover {covered} of {space} cells (not exhaustive)")
    return faults


class Member:
    """A confactor whose table is kept as a lazy product: a list of factors,
    each reduced on the body.  Contextual VE's absorbing set is made of
    these; the tree engine hands each eliminated variable's bucket over as
    members too."""

    __slots__ = ("body", "tables", "for_vars", "pure_for")

    def __init__(self, body, tables, for_vars, pure_for):
        self.body = body
        self.tables = tables
        self.for_vars = for_vars
        self.pure_for = pure_for


def pairwise(
    a_items: Iterable[Confactor],
    b_items: Sequence[Confactor],
    op: Optional[Callable[..., Table]] = None,
    counters=None,
) -> list:
    """Combine every compatible pair ``(a, b)``: the union of the bodies and
    the two tables, each reduced on the other's body.  With ``op``
    (``product`` or ``add_tables``) each pair becomes a :class:`Confactor`
    holding ``op`` of the two tables; without, it is handed back unmultiplied
    as a two-table :class:`Member`.  Incompatible pairs vanish.  Provenance
    unites and purity intersects."""
    out = []
    for a in a_items:
        for b in b_items:
            if compatible(a.body, b.body):
                body = context_union(a.body, b.body)
                a_table, b_table = set_table(a.table, b.body), set_table(b.table, a.body)
                for_vars, pure_for = a.for_vars | b.for_vars, a.pure_for & b.pure_for
                if op is None:
                    out.append(Member(body, [a_table, b_table], for_vars, pure_for))
                else:
                    out.append(
                        Confactor(body, op(a_table, b_table, counters), for_vars, pure_for)
                    )
    return out


def split_on_context(
    catalog: DomainCatalog,
    body: Context,
    tables: list[Table],
    c: Context,
    counters=None,
) -> tuple[list[tuple[Context, list[Table]]], tuple[Context, list[Table]]]:
    """Split the piece ``(body, tables)`` on each variable ``c`` assigns and
    ``body`` does not; ``tables`` is a lazy product sharing one body.

    Each split on ``v`` replaces the current piece by one piece per value of
    ``v``: the body gains ``v = value`` and every table is sliced at it.  The
    piece matching ``c`` is split further; the others are residuals.
    Variables occurring in a table come first (splitting them shrinks the
    tables that later splits copy), then the rest, both in ascending id;
    one call per variable, each on the piece the last one kept, gives any
    other order.  Returns the residual pieces and the kept piece.
    """
    todo = [v for v in c.vars() if v not in body]
    in_table = {v for t in tables for v in t.vars}
    order = [v for v in todo if v in in_table] + [v for v in todo if v not in in_table]
    residuals: list[tuple[Context, list[Table]]] = []
    for v in order:
        target = c.get(v)
        dom = catalog.size(v)
        if counters is not None:
            counters.splits += dom - 1
        for val in range(dom):
            point = Context([(v, val)])
            piece = (body.with_assignment(v, val), [set_table(t, point) for t in tables])
            if val == target:
                kept = piece
            else:
                residuals.append(piece)
        body, tables = kept
    return residuals, (body, tables)


def count_split_pieces(catalog: DomainCatalog, r: Confactor, c: Context) -> int:
    """Number of residual pieces created by splitting ``r`` on ``c``:
    the sum of (domain size - 1) over the new variables, whatever order the
    splits are performed in."""
    if not compatible(r.body, c):
        raise ValueError("incompatible contexts")
    return sum(catalog.size(v) - 1 for v in c.vars() if v not in r.body)


def tile(
    items: Iterable[Confactor],
    scope: Sequence[VariableId],
    catalog: DomainCatalog,
    fill: float,
    evidence: Context = Context(),
) -> np.ndarray:
    """Dense array over ``scope`` holding each confactor's table in the
    block where its body holds, and ``fill`` everywhere else.

    With ``evidence``, only the evidence's block is built: ``scope`` leaves
    out the observed variables, confactors whose bodies conflict with the
    evidence are skipped, and every other table is sliced at it.  Every
    unobserved body and table variable must be in ``scope``; where bodies
    overlap, the later confactor wins.
    """
    arr = np.full(catalog.shape(scope), fill)
    for r in items:
        body = r.body
        if not compatible(body, evidence):
            continue
        index, rest = [], []
        for v in scope:
            val = body.get(v)
            if val is None:
                index.append(slice(None))
                rest.append(v)
            else:
                index.append(val)
        arr[tuple(index)] = _broadcast_to(set_table(r.table, evidence), rest)
    return arr
