"""The query lifecycle and the elimination orders shared by all engines.

:class:`Engine` holds the only ``query()``: it validates the query, finds the
relevant variables, picks or checks the elimination order, then runs the
subclass's steps: ``begin(obs)`` substitutes the evidence into the relevant
families to fill the working set ``items``, the one elimination loop
:meth:`Engine.eliminate` removes each variable of the order through the
engine's ``step(y, bucket)``, and ``finish()`` multiplies what is left into
one unnormalized table.  ``query()`` then normalizes it through
:func:`~ctxve.posterior.normalize_posterior`, which first checks that it
ranges over exactly the query variables: that answer step is the same for
every engine.
The loop is bucket elimination (Dechter 1999).  The order is fixed before
``begin``; each item is filed once, in the bucket of the first variable of
the order that it mentions, and a step takes its own bucket only, so no
step scans the working set.
A query must be non-empty, name existing variables, repeat none and observe
none, and the evidence must assign existing variables values inside their
domains; any other query raises ``ValueError`` before any work is done.
A network with an empty family (possible only when force-loaded) supports
no evidence at all, so every query on it raises
:class:`~ctxve.errors.ZeroEvidenceError`, also before any work is done.

Barren variables are pruned before planning, in every engine.  The relevant
variables (:func:`relevant_variables`) are the query and observed variables
and all their ancestors, a variable's parents being the other variables of
its family's confactors.  Any other variable is barren: summed out, its
family and those of its barren descendants give all-ones tables, so they
cannot change the answer (Shachter 1986; Baker & Boult 1990).  ``begin``
reads only the relevant families, so a barren family is never multiplied,
summed or expanded densely.  This holds for valid networks, whose families
are normalized; a force-loaded network whose barren family is not may get
different answers from the engines and from ``enum_query``, which sums the
whole joint and stays the unpruned oracle.

The default order is greedy min-size over the relevant unobserved non-query
variables: repeatedly eliminate the variable whose elimination builds the
smallest factor, measured as the product of the domain sizes of the union of
the variables of all factors involving it, the lowest variable id winning
ties.  It is planned on the elimination graph of the evidence-reduced scopes
of the relevant families, so every engine given the same (network, query,
evidence) gets the same order.  The planner updates only the neighbours of
each eliminated variable, so a long chain is ordered in time linear in its
length.  A user order must cover the relevant unobserved non-query
variables; it may also list barren ones, each of which becomes a step that
touches nothing.
"""

from __future__ import annotations

import heapq
import math
from typing import Optional, Sequence

from .counters import CostCounters
from .errors import ZeroEvidenceError
from .network import ContextualBeliefNetwork
from .posterior import Posterior, normalize_posterior
from .tables import Context, VariableId


class Engine:
    """One engine instance per query over a shared immutable network.

    ``items`` is the working set: the engine's factors (tables, confactors
    or grouped confactor sets), each naming its variables as ``vars``.  It
    lists the live set ``live``, ``id(item)`` to item in filing order.
    Assigning ``items`` files the items afresh under ``order``, so
    ``order`` is set first: each item goes to the bucket of the first
    variable of the order that it mentions, or, mentioning none, waits for
    ``finish``.
    After :meth:`query`, ``counters`` holds the query's costs, ``order`` the
    elimination order it ran and ``relevant`` the variables, in ascending
    id order, whose families ``begin`` read.  Until a query prunes it,
    ``relevant`` is every variable, so ``begin`` called directly sees the
    whole network.
    """

    def __init__(self, net: ContextualBeliefNetwork):
        self.net = net
        self.counters = CostCounters()
        self.order: list[VariableId] = []
        self.relevant: list[VariableId] = list(range(net.n_vars()))
        self.live: dict[int, object] = {}
        self._order: tuple[VariableId, ...] = ()
        self._next = 0

    @property
    def items(self) -> list:
        return list(self.live.values())

    @items.setter
    def items(self, items) -> None:
        order = self._order = tuple(self.order)
        # position[v] is v's place in the order; an item that mentions no
        # variable of the order lands in the last bucket, which is never
        # eliminated.
        position = [len(order)] * self.net.n_vars()
        for i, y in enumerate(order):
            position[y] = i
        self._position = position.__getitem__
        self._buckets: list[list] = [[] for _ in range(len(order) + 1)]
        self._next = 0
        self.live = {}
        self._file(items)
        if len(self.live) != len(items):
            raise ValueError("the working set holds one item twice")

    def _file(self, items) -> None:
        live, buckets, position = self.live, self._buckets, self._position
        try:
            for item in items:
                live[id(item)] = item
                buckets[min(map(position, item.vars))].append(item)
        except ValueError:  # min() of no variables
            raise ValueError("the working set holds a constant") from None

    def eliminate(self, y: VariableId) -> None:
        """Eliminate ``y``, the next variable of the order.

        ``y``'s bucket holds exactly the live items that mention ``y``, in
        working-set order: every item filed under an earlier variable left
        with it.  The bucket leaves the live set; a non-empty one goes to
        ``step(y, bucket)``, which returns the items it created, to be
        filed, the sizes of the tables created and the engine's size metric
        for the step.  An empty bucket (a barren variable of a user order)
        is a step that creates nothing.  Any other ``y`` raises
        ``ValueError`` before the working set is touched.
        """
        order, k = self._order, self._next
        if k == len(order) or order[k] != y:
            raise ValueError(f"eliminate({y}) out of turn: the order left is {list(order[k:])}")
        self._next = k + 1
        bucket, self._buckets[k] = self._buckets[k], []
        live = self.live
        for item in bucket:
            del live[id(item)]
        created, created_sizes, step_size = self.step(y, bucket) if bucket else ([], (), 0)
        self._file(created)
        self.counters.record_elimination(y, created_sizes, step_size)

    @classmethod
    def answer(
        cls,
        net: ContextualBeliefNetwork,
        query_vars: Sequence[VariableId],
        obs: Optional[Context] = None,
        order: Optional[Sequence[VariableId]] = None,
    ) -> tuple[Posterior, CostCounters]:
        """Answer one query on a fresh engine: the posterior and its costs."""
        engine = cls(net)
        return engine.query(query_vars, obs, order), engine.counters

    def query(
        self,
        query_vars: Sequence[VariableId],
        obs: Optional[Context] = None,
        order: Optional[Sequence[VariableId]] = None,
    ) -> Posterior:
        obs = obs or Context()
        query = check_query(self.net, query_vars, obs)
        if order is None:
            # The default order is every relevant variable but the query and
            # the evidence, so the relevance walk is not repeated.
            self.order = min_size_order(self.net, query, obs)
            relevant = {*self.order, *query, *obs.vars()}
        else:
            relevant = relevant_variables(self.net, query, obs)
            self.order = check_order(self.net, order, query, obs, relevant)
        self.relevant = sorted(relevant)
        self.counters = CostCounters()
        self.begin(obs)
        for y in self.order:
            self.eliminate(y)
        return normalize_posterior(self.finish(), query, self.net.catalog)


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


def relevant_variables(
    net: ContextualBeliefNetwork, query_vars: Sequence[VariableId], obs: Context
) -> set[VariableId]:
    """The query and observed variables together with all their ancestors.

    A variable's parents are the other variables of its family's confactors,
    bodies and tables alike.  Every other variable is barren: the answer
    does not depend on its family.
    """
    scopes = net.scopes
    relevant = {*query_vars, *obs.vars()}
    stack = list(relevant)
    while stack:
        for v in scopes[stack.pop()]:
            if v not in relevant:
                relevant.add(v)
                stack.append(v)
    return relevant


def min_size_order(
    net: ContextualBeliefNetwork,
    query_vars: Sequence[VariableId],
    obs: Optional[Context] = None,
) -> list[VariableId]:
    """Greedy min-size elimination order for a query.

    Plans only the relevant variables (:func:`relevant_variables`): barren
    ones are pruned, so the order lists exactly the relevant unobserved
    non-query variables.  Repeatedly eliminates the one whose elimination
    builds the smallest dense factor: the product of the domain sizes of its
    closed neighbourhood in the elimination graph, whose edges join the
    variables of each evidence-reduced relevant family scope.  Ties go to
    the lowest variable id.  The planner works incrementally: eliminating a
    variable joins its neighbours into a clique and recomputes the cost of
    those neighbours only, and a lazy heap keyed on ``(cost, id)`` skips
    entries whose cost has since changed.  A step costs time in its neighbourhood
    and fill, not in the number of variables.
    """
    obs = obs or Context()
    size = net.catalog.size
    observed = set(obs.vars())
    relevant = relevant_variables(net, query_vars, obs)
    # A relevant family's scope holds relevant variables only: its own
    # variable and that variable's parents.
    adj: list[set[VariableId]] = [set() for _ in range(net.n_vars())]
    for x in relevant:
        scope = {v for v in net.scopes[x] if v not in observed}
        for v in scope:
            adj[v] |= scope
    for v in relevant:
        adj[v].discard(v)

    def cost(y: VariableId) -> int:
        return size(y) * math.prod(size(u) for u in adj[y])

    excluded = observed | set(query_vars)
    current = {v: cost(v) for v in relevant if v not in excluded}
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
    relevant: set[VariableId],
) -> list[VariableId]:
    """Validate a user-supplied elimination order and return it as a list.

    It must name existing unobserved non-query variables, none twice, and
    cover every one of them in ``relevant`` (:func:`relevant_variables`).
    It may also list barren variables: their families are pruned, so each
    becomes a step that touches nothing, recorded with no created tables."""
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
    missing = relevant - qset - oset - set(order)
    if missing:
        names = [net.catalog.names[v] for v in sorted(missing)]
        raise ValueError(f"order does not cover variables: {names}")
    return order
