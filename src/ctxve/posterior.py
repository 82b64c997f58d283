"""Posterior distributions and shared answer-extraction machinery.

Each engine's ``finish()`` builds one unnormalized table over the query;
:meth:`~ctxve.orders.Engine.query` hands it to :func:`normalize_posterior`,
which ``enum_query`` also uses, and which checks that the table ranges over
exactly the query variables before it normalizes.  Confactors
become dense tables here through :func:`~ctxve.confactor.tile`: each
confactor over a ones background, multiplied out by
:func:`extract_posterior`, or a mutually exclusive set over zeros
(:func:`tile_confactors`).  :func:`cancels` is the one rule for the
constants of proportionality that each step drops (:func:`drop_constants`).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from .confactor import Confactor, tile
from .errors import InvariantError, ZeroEvidenceError
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


def cancels(table: Table) -> bool:
    """True iff ``table`` has no variables: a constant of proportionality,
    which cancels in the renormalization, so the caller drops it.  Raises
    :class:`ZeroEvidenceError` when that constant is zero."""
    if table.vars:
        return False
    if float(table.array) == 0.0:
        raise ZeroEvidenceError("evidence has probability zero")
    return True


def drop_constants(confactors: Iterable[Confactor]) -> list[Confactor]:
    """The confactors that mention a variable; the others are constants and
    are dropped through :func:`cancels`, so a zero one raises."""
    return [r for r in confactors if r.vars or not cancels(r.table)]


def normalize_posterior(
    table: Table, query_vars: Sequence[VariableId], catalog: DomainCatalog
) -> Posterior:
    """``table`` in ascending variable id, divided by its sum.  An
    :class:`InvariantError` unless it ranges over exactly ``query_vars``; a
    :class:`ZeroEvidenceError` unless its sum is positive and finite."""
    query = sorted(query_vars)
    if set(table.vars) != set(query):
        raise InvariantError(f"answer is over {sorted(table.vars)}, not the query {query}")
    ordered = reorder(table, tuple(query))
    total = float(ordered.array.sum())
    if total <= 0.0 or not np.isfinite(total):
        raise ZeroEvidenceError("evidence has probability zero")
    return Posterior(ordered.vars, Table(ordered.vars, ordered.array / total), catalog)


def tile_confactors(
    items: Sequence[Confactor], vars: Iterable[VariableId], catalog: DomainCatalog
) -> Table:
    """Write a mutually exclusive, covering confactor set into one dense
    table over ``vars``, in ascending id (no arithmetic, pure placement)."""
    scope = tuple(sorted(vars))
    return Table(scope, tile(items, scope, catalog, 0.0))


def extract_posterior(
    items: Sequence[Confactor], catalog: DomainCatalog, counters=None
) -> Table:
    """Multiply the remaining confactors into one unnormalized table over
    the variables they mention.

    Each confactor is tiled over its own variables with 1 outside its body,
    so the product reproduces, entry by entry, the product of the applicable
    confactors' values.  No confactor is a constant: each was dropped in the
    step that made it (:func:`drop_constants`).
    """
    expansions = []
    for r in items:
        scope = tuple(sorted(r.vars))
        expansions.append(Table(scope, tile([r], scope, catalog, 1.0)))
    acc, _ = multiply_all(expansions, counters)
    return acc
