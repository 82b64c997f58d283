"""Tree-based variable elimination.

Follows the tabular engine's schedule exactly (the same factors are
multiplied and the same variable summed out at each step) but represents
every factor as a complete confactor set, so each multiplication only pays
for the compatible pieces.  This is the control that separates the benefit
of contextual tables from the benefit of contextual VE's lazy multiplication
in the counters, which count every pending multiplication as performed
eagerly.  In wall time it is not eager: like the tabular engine, it never
builds the last product of a bucket.

Groups multiply through :func:`~ctxve.confactor.pairwise` with ``product``.
Eliminating a variable multiplies its bucket's groups that way up to the
largest, which ``pairwise`` pairs with the rest unmultiplied, as two-table
members.  Contextual VE's sum-out step,
:func:`~ctxve.engine_cve.sum_out_members`, contracts each pair over the
variable, so that product is counted (its multiplications, and each pair's
size in ``max_table``) but never built.  Nothing is pruned: a lone group's
members are given empty purity, and a pair's purity intersects to empty, as
two groups descend from disjoint families.  A result with no variables is a
constant and is dropped through :func:`~ctxve.posterior.cancels`, as the
tabular engine drops its scalars.  ``finish`` merges what is left eagerly
and tiles it densely over its signature.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .confactor import EMPTY, Confactor, Member, pairwise
from .counters import CostCounters
from .engine_cve import incorporate_evidence, sum_out_members
from .errors import InvariantError
from .network import ContextualBeliefNetwork
from .orders import Engine
from .posterior import Posterior, cancels, tile_confactors
from .tables import Context, DomainCatalog, Table, VariableId, product


class GroupedFactor:
    """A complete confactor set standing in for one tabular factor."""

    __slots__ = ("members", "signature")

    def __init__(self, members: Sequence[Confactor]):
        self.members = list(members)
        signature: set[int] = set()
        for r in self.members:
            signature.update(r.body.vars(), r.table.vars)
        self.signature: frozenset[int] = frozenset(signature)

    def total_size(self) -> int:
        return sum(r.size for r in self.members)

    def signature_space(self, catalog: DomainCatalog) -> int:
        return math.prod(catalog.size(v) for v in self.signature) if self.signature else 1


def note_products(catalog: DomainCatalog, sizes: Sequence[int], signature, counters) -> None:
    """Note the member products of one grouped multiplication as created
    tables and check that together they never exceed the size of the dense
    factor over ``signature``."""
    if counters is not None:
        counters.note_tables(sizes)
    if sum(sizes) > math.prod(catalog.size(v) for v in signature):
        raise InvariantError("grouped factor exceeds its dense factor size")


def tve_multiply(
    catalog: DomainCatalog,
    g1: GroupedFactor,
    g2: GroupedFactor,
    counters=None,
) -> GroupedFactor:
    """Multiply two grouped factors member by member.

    Every compatible member pair contributes the union of its bodies and the
    product of its mutually reduced tables (:func:`~ctxve.confactor.pairwise`
    with ``product``); incompatible pairs vanish.  The result is complete
    again and its total table size never exceeds the size of the
    corresponding dense factor.
    """
    result = GroupedFactor(pairwise(g1.members, g2.members, product, counters))
    note_products(catalog, [r.size for r in result.members], result.signature, counters)
    return result


class TreeVE(Engine):
    """Grouped confactor sets; the query lifecycle is :meth:`Engine.query`.

    The eager control in its counters only: the last product of each bucket
    is contracted over the eliminated variable, not built, but its
    multiplications are counted and each pair's size is noted in
    ``max_table``, as if it had been built."""

    def __init__(self, net: ContextualBeliefNetwork):
        super().__init__(net)
        self.groups: list[GroupedFactor] = []

    def begin(self, obs: Optional[Context] = None) -> None:
        obs = obs or Context()
        self.groups = []
        for x in range(self.net.n_vars()):
            members = incorporate_evidence(self.net.families[x], obs)
            if members:
                self.groups.append(GroupedFactor(members))

    def _merge(self, groups: Sequence[GroupedFactor]) -> GroupedFactor:
        """Multiply groups pairwise in the tabular engine's order: ascending
        by the size of the dense factor each group stands for."""
        catalog = self.net.catalog
        ordered = sorted(groups, key=lambda g: g.signature_space(catalog))
        merged = ordered[0]
        for g in ordered[1:]:
            merged = tve_multiply(catalog, merged, g, self.counters)
        return merged

    def eliminate(self, y: VariableId) -> None:
        involved: list[GroupedFactor] = []
        rest: list[GroupedFactor] = []
        for g in self.groups:
            (involved if y in g.signature else rest).append(g)
        if not involved:
            self.counters.record_elimination(y, (), 0)
            return
        catalog = self.net.catalog
        *head, last = sorted(involved, key=lambda g: g.signature_space(catalog))
        if head:
            # The bucket's last product stays lazy: sum_out_members contracts
            # each pair over y.  It is counted as if built.
            merged = self._merge(head)
            pairs = pairwise(merged.members, last.members)
            sizes = [
                math.prod(catalog.size(v) for v in {*m.tables[0].vars, *m.tables[1].vars})
                for m in pairs
            ]
            note_products(catalog, sizes, merged.signature | last.signature, self.counters)
        else:
            pairs = [Member(r.body, [r.table], r.for_vars, EMPTY) for r in last.members]
        members = sum_out_members(catalog, pairs, y, self.counters)
        result = GroupedFactor(members)
        if result.signature:
            rest.append(result)
        else:  # a constant: at most one member, its body empty
            for r in result.members:
                cancels(r.table)
        self.groups = rest
        self.counters.record_elimination(y, [r.size for r in members], result.total_size())

    def finish(self, query_vars: Sequence[VariableId]) -> Table:
        """Multiply the remaining groups pairwise (the tabular engine's final
        product, group by group) and tile the resulting complete confactor
        set densely over its signature."""
        merged = self._merge(self.groups)
        return tile_confactors(merged.members, merged.signature, self.net.catalog)


def tve_query(
    net: ContextualBeliefNetwork,
    query_vars: Sequence[VariableId],
    obs: Optional[Context] = None,
    order: Optional[Sequence[VariableId]] = None,
) -> tuple[Posterior, CostCounters]:
    engine = TreeVE(net)
    return engine.query(query_vars, obs, order), engine.counters
