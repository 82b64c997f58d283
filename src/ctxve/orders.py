"""The query lifecycle and the elimination orders shared by all engines.

:class:`Engine` holds the only ``query()``: it validates the query, picks or
checks the elimination order, then runs the subclass's per-variable step:
``begin(obs)`` substitutes the evidence, ``eliminate(y)`` removes one
variable, ``finish(query_vars)`` multiplies what is left into one
unnormalized table.  ``query()`` then checks that this table ranges over
exactly the query variables (else :class:`~ctxve.errors.InvariantError`)
and normalizes it: that answer step is the same for every engine.
A query must be non-empty, name existing variables, repeat none and observe
none, and the evidence must assign existing variables values inside their
domains; any other query raises ``ValueError`` before any work is done.
A network with an empty family (possible only when force-loaded) supports
no evidence at all, so every query on it raises
:class:`~ctxve.errors.ZeroEvidenceError`, also before any work is done.

The default order is greedy min-size: repeatedly eliminate the variable
whose elimination builds the smallest factor, measured as the product of the
domain sizes of the union of the variables of all factors involving it.
Scopes are simulated on the tabular factor structure so that every engine
given the same (network, query, evidence) gets the same order.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .counters import CostCounters
from .errors import InvariantError, ZeroEvidenceError
from .network import ContextualBeliefNetwork
from .posterior import Posterior, normalize_posterior
from .tables import Context, VariableId


class Engine:
    """One engine instance per query over a shared immutable network.

    After :meth:`query`, ``counters`` holds the query's costs and ``order``
    the elimination order it ran.
    """

    def __init__(self, net: ContextualBeliefNetwork):
        self.net = net
        self.counters = CostCounters()
        self.order: list[VariableId] = []

    def query(
        self,
        query_vars: Sequence[VariableId],
        obs: Optional[Context] = None,
        order: Optional[Sequence[VariableId]] = None,
    ) -> Posterior:
        obs = obs or Context()
        query = check_query(self.net, query_vars, obs)
        if order is None:
            self.order = min_size_order(self.net, query, obs)
        else:
            self.order = check_order(self.net, order, query, obs)
        self.counters = CostCounters()
        self.begin(obs)
        for y in self.order:
            self.eliminate(y)
        table = self.finish(query)
        if set(table.vars) != set(query):
            raise InvariantError(
                f"answer is over {sorted(table.vars)}, not the query {sorted(query)}"
            )
        return normalize_posterior(table, query, self.net.catalog)


def check_query(
    net: ContextualBeliefNetwork, query_vars: Sequence[VariableId], obs: Context
) -> list[VariableId]:
    """Validate a query and return it as a list: it must be non-empty, and
    its variables must exist, be distinct and be unobserved.  Every evidence
    variable must exist and be given a value index inside its domain.  A
    network with an empty family raises :class:`ZeroEvidenceError`."""
    query = list(query_vars)
    if not query:
        raise ValueError("empty query")
    unknown = [v for v in query if not 0 <= v < net.n_vars()]
    if unknown:
        raise ValueError(f"unknown query variable ids: {unknown}")
    names = net.catalog.names
    if len(set(query)) != len(query):
        repeated = sorted({names[v] for v in query if query.count(v) > 1})
        raise ValueError(f"query repeats variables: {repeated}")
    unknown = [v for v in obs.vars() if not 0 <= v < net.n_vars()]
    if unknown:
        raise ValueError(f"unknown evidence variable ids: {unknown}")
    outside = [
        f"{names[v]}={val}" for v, val in obs.items() if not 0 <= val < net.catalog.size(v)
    ]
    if outside:
        raise ValueError(f"evidence values out of range: {outside}")
    observed = [names[v] for v in sorted(set(query) & set(obs.vars()))]
    if observed:
        raise ValueError(f"query variables are observed: {observed}")
    empty = [names[x] for x, fam in enumerate(net.families) if not fam]
    if empty:
        # Only a force-loaded network can hold an empty family: nothing
        # supports any value of its variable, so every evidence is impossible.
        raise ZeroEvidenceError(f"evidence has probability zero: no confactors for {empty}")
    return query


def min_size_order(
    net: ContextualBeliefNetwork,
    query_vars: Sequence[VariableId],
    obs: Optional[Context] = None,
) -> list[VariableId]:
    obs = obs or Context()
    cat = net.catalog
    scopes = []
    for x in range(net.n_vars()):
        scope = {v for r in net.families[x] for v in r.variables()} - set(obs.vars())
        if scope:
            scopes.append(scope)
    remaining = [
        v
        for v in range(net.n_vars())
        if v not in set(query_vars) and v not in obs
    ]
    order: list[VariableId] = []
    while remaining:
        best = None
        best_cost = None
        for y in remaining:
            union: set[int] = {y}
            for scope in scopes:
                if y in scope:
                    union |= scope
            cost = math.prod(cat.size(v) for v in union)
            if best_cost is None or cost < best_cost:
                best, best_cost = y, cost
        assert best is not None
        order.append(best)
        involved = [s for s in scopes if best in s]
        scopes = [s for s in scopes if best not in s]
        if involved:
            merged = set().union(*involved) - {best}
            if merged:
                scopes.append(merged)
        remaining.remove(best)
    return order


def check_order(
    net: ContextualBeliefNetwork,
    order: Sequence[VariableId],
    query_vars: Sequence[VariableId],
    obs: Context,
) -> list[VariableId]:
    """Validate a user-supplied elimination order and return it as a list: it
    must name existing variables, each unobserved non-query one exactly once."""
    order = list(order)
    unknown = [v for v in order if not 0 <= v < net.n_vars()]
    if unknown:
        raise ValueError(f"unknown order variable ids: {unknown}")
    if len(set(order)) != len(order):
        raise ValueError("elimination order contains duplicates")
    qset, oset = set(query_vars), set(obs.vars())
    for v in order:
        if v in qset:
            raise ValueError(f"order eliminates query variable {net.catalog.names[v]}")
        if v in oset:
            raise ValueError(f"order eliminates observed variable {net.catalog.names[v]}")
    required = {
        v for v in range(net.n_vars()) if v not in qset and v not in oset
    }
    missing = required - set(order)
    if missing:
        names = [net.catalog.names[v] for v in sorted(missing)]
        raise ValueError(f"order does not cover variables: {names}")
    return order
