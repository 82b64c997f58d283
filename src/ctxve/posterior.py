"""Posterior distributions and shared answer-extraction machinery.

Confactors become dense tables here through :func:`~ctxve.confactor.tile`:
one confactor over a ones background (:func:`expand_confactor`), or a
mutually exclusive set over zeros (:func:`tile_confactors`).
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

import numpy as np

from .confactor import Confactor, tile
from .errors import ZeroEvidenceError
from .tables import (
    DomainCatalog,
    Table,
    VariableId,
    multiply_all,
    reorder,
)


class Posterior:
    """Normalized table over the query variables (ascending variable id)."""

    __slots__ = ("vars", "table", "catalog")

    def __init__(self, vars: Sequence[VariableId], table: Table, catalog: DomainCatalog):
        self.vars = tuple(vars)
        self.table = table
        self.catalog = catalog

    @property
    def probabilities(self) -> np.ndarray:
        return self.table.array

    def prob(self, assignment: Mapping[VariableId, int]) -> float:
        return self.table.lookup(assignment)

    def lines(self) -> list[str]:
        """``value<TAB>probability`` rows in domain order, 10 significant digits."""
        cat = self.catalog
        out = []
        ranges = [range(cat.size(v)) for v in self.vars]
        for combo in itertools.product(*ranges):
            label = ",".join(cat.domains[v][val] for v, val in zip(self.vars, combo))
            out.append(f"{label}\t{self.table.array[combo]:.10g}")
        return out

    def max_abs_diff(self, other: "Posterior") -> float:
        if self.vars != other.vars:
            raise ValueError("posteriors over different variables")
        return float(np.max(np.abs(self.table.array - other.table.array)))


def normalize_posterior(
    table: Table, query_vars: Sequence[VariableId], catalog: DomainCatalog
) -> Posterior:
    ordered = reorder(table, tuple(sorted(query_vars)))
    total = float(ordered.array.sum())
    if total <= 0.0 or not np.isfinite(total):
        raise ZeroEvidenceError("evidence has probability zero")
    return Posterior(ordered.vars, Table(ordered.vars, ordered.array / total), catalog)


def expand_confactor(r: Confactor, catalog: DomainCatalog) -> Table:
    """Table over the confactor's own variables, filled with 1 outside the
    body region.

    Multiplying these expansions reproduces, entry by entry, the product of
    the values of the applicable confactors: where a body does not hold, the
    confactor contributes a neutral 1.
    """
    scope = tuple(sorted(r.variables()))
    return Table(scope, tile([r], scope, catalog, 1.0))


def tile_confactors(
    items: Sequence[Confactor],
    query_vars: Sequence[VariableId],
    catalog: DomainCatalog,
) -> Table:
    """Write a mutually exclusive, covering confactor set into one dense
    table over the query variables (no arithmetic, pure placement)."""
    query = tuple(sorted(query_vars))
    return Table(query, tile(items, query, catalog, 0.0))


def extract_posterior(
    items: Sequence[Confactor],
    query_vars: Sequence[VariableId],
    catalog: DomainCatalog,
    counters=None,
) -> Posterior:
    """Multiply the remaining confactors and renormalize over the query.

    Every remaining confactor must only mention query variables.  Scalar
    confactors are proportionality constants and are dropped, unless one is
    zero: then the evidence has probability zero.
    """
    query = tuple(sorted(query_vars))
    qset = set(query)
    expansions = []
    for r in items:
        vars = r.variables()
        if not vars <= qset:
            extra = sorted(vars - qset)
            raise ValueError(f"confactor mentions uneliminated variables: {extra}")
        if vars:
            expansions.append(expand_confactor(r, catalog))
        elif float(r.table.array) == 0.0:
            raise ZeroEvidenceError("evidence has probability zero")
    covered = {v for t in expansions for v in t.vars}
    if covered != qset:
        missing = sorted(qset - covered)
        raise ValueError(f"no remaining confactor mentions query variables: {missing}")
    acc, _ = multiply_all(expansions, counters)
    return normalize_posterior(acc, query, catalog)
