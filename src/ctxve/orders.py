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
domain sizes of the union of the variables of all factors involving it, the
lowest variable id winning ties.  It is planned on the elimination graph of
the evidence-reduced tabular factor scopes, so every engine given the same
(network, query, evidence) gets the same order.  The planner updates only
the neighbours of each eliminated variable, so a long chain is ordered in
time linear in its length.
"""

from __future__ import annotations

import heapq
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
    """Greedy min-size elimination order for a query.

    Repeatedly eliminates the unobserved non-query variable whose elimination
    builds the smallest dense factor: the product of the domain sizes of its
    closed neighbourhood in the elimination graph, whose edges join the
    variables of each evidence-reduced family scope.  Ties go to the lowest
    variable id.  The planner works incrementally: eliminating a variable
    joins its neighbours into a clique and recomputes the cost of those
    neighbours only, and a lazy heap keyed on ``(cost, id)`` skips entries
    whose cost has since changed.  A step costs time in its neighbourhood
    and fill, not in the number of variables.
    """
    obs = obs or Context()
    size = net.catalog.size
    observed = set(obs.vars())
    adj: list[set[VariableId]] = [set() for _ in range(net.n_vars())]
    for x in range(net.n_vars()):
        scope = {v for r in net.families[x] for v in r.variables()} - observed
        for v in scope:
            adj[v] |= scope
    for v, nbrs in enumerate(adj):
        nbrs.discard(v)

    def cost(y: VariableId) -> int:
        return size(y) * math.prod(size(u) for u in adj[y])

    excluded = observed | set(query_vars)
    current = {v: cost(v) for v in range(net.n_vars()) if v not in excluded}
    heap = [(c, v) for v, c in current.items()]
    heapq.heapify(heap)
    order: list[VariableId] = []
    while heap:
        c, y = heapq.heappop(heap)
        if current.get(y) != c:
            continue  # stale: y is eliminated or its cost has changed
        del current[y]
        order.append(y)
        nbrs = adj[y]
        for u in nbrs:
            adj[u] |= nbrs
            adj[u] -= {u, y}
            if u in current:
                current[u] = cost(u)
                heapq.heappush(heap, (current[u], u))
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
