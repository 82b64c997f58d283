"""Tree-based variable elimination.

Follows the tabular engine's schedule (the same factors are multiplied and
the same variable summed out at each step) but represents every factor as a
complete confactor set, so each multiplication only pays for the compatible
pieces.  This is the control that separates the benefit of contextual
tables from the benefit of contextual VE's lazy multiplication in the
counters, which count every pending multiplication as performed eagerly.
In wall time it is not eager: like the tabular engine, it never builds the
last product of a bucket.

Both engines fold a bucket by :func:`~ctxve.tables.fold_key`, yet after
evidence their schedules can part.  Evidence can drop every member that
mentions a variable; the group's ``vars`` and ``size`` then lose that
variable while the tabular engine's dense factor keeps it, so the groups
fold in another order and can cost more multiplications than the tabular
engine (the strict xfail ``test_evidence_narrowed_groups_pass_the_mults_check``).

Groups multiply through :func:`~ctxve.confactor.pairwise` with ``product``.
Eliminating a variable multiplies its bucket's groups that way up to the
largest, which ``pairwise`` pairs with the rest unmultiplied, as two-table
members.  Contextual VE's sum-out step,
:func:`~ctxve.engine_cve.sum_out_members`, contracts each pair over the
variable, so that product is counted (its multiplications, and each pair's
size in ``max_table``) but never built.  Apart from the barren families
that no engine reads (:mod:`ctxve.orders`), nothing is pruned: a lone
group's members are given empty purity, and a pair's purity intersects to
empty, as two groups descend from disjoint families.  A result member with
no variables is a constant, dropped in its step as the tabular engine drops
its scalars (:func:`~ctxve.posterior.drop_constants`).
``finish`` merges what is left eagerly and tiles it densely over its
variables.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .confactor import EMPTY, Confactor, Member, pairwise
from .engine_cve import incorporate_evidence, sum_out_members
from .errors import InvariantError
from .orders import Engine
from .posterior import drop_constants, tile_confactors
from .tables import Context, DomainCatalog, Table, VariableId, fold_key, product


class GroupedFactor:
    """A complete confactor set standing in for one tabular factor; ``vars``
    are the variables its members mention and ``size`` is the number of
    entries of the dense factor over them, so :func:`~ctxve.tables.fold_key`
    orders groups as it orders the tabular engine's tables."""

    __slots__ = ("members", "vars", "size")

    def __init__(self, members: Sequence[Confactor], catalog: DomainCatalog):
        self.members = list(members)
        self.vars: frozenset[int] = frozenset({v for r in self.members for v in r.vars})
        self.size = math.prod(catalog.size(v) for v in self.vars)


def note_products(sizes: Sequence[int], dense_size: int, counters) -> None:
    """Note the member products of one grouped multiplication as created
    tables and check that together they never exceed ``dense_size``, the
    size of the dense factor they stand for."""
    if counters is not None:
        counters.note_tables(sizes)
    if sum(sizes) > dense_size:
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
    result = GroupedFactor(pairwise(g1.members, g2.members, product, counters), catalog)
    note_products([r.size for r in result.members], result.size, counters)
    return result


class TreeVE(Engine):
    """Grouped confactor sets; the query and its elimination loop are
    :class:`Engine`'s.

    The eager control in its counters only: the last product of each bucket
    is contracted over the eliminated variable, not built, but its
    multiplications are counted and each pair's size is noted in
    ``max_table``, as if it had been built."""

    def begin(self, obs: Optional[Context] = None) -> None:
        obs = obs or Context()
        items = []
        for x in self.relevant:
            members = incorporate_evidence(self.net.families[x], obs)
            if members:
                items.append(GroupedFactor(members, self.net.catalog))
        self.items = items

    def _merge(self, groups: Sequence[GroupedFactor]) -> GroupedFactor:
        """Multiply groups pairwise in the tabular engine's order: ascending
        by the size of the dense factor each group stands for."""
        catalog = self.net.catalog
        ordered = sorted(groups, key=fold_key)
        merged = ordered[0]
        for g in ordered[1:]:
            merged = tve_multiply(catalog, merged, g, self.counters)
        return merged

    def step(self, y: VariableId, bucket: list[GroupedFactor]) -> tuple:
        catalog = self.net.catalog
        *head, last = sorted(bucket, key=fold_key)
        if head:
            # The bucket's last product stays lazy: sum_out_members contracts
            # each pair over y.  It is counted as if built.
            merged = self._merge(head)
            pairs = pairwise(merged.members, last.members)
            sizes = [
                math.prod(catalog.size(v) for v in {*m.tables[0].vars, *m.tables[1].vars})
                for m in pairs
            ]
            dense_size = math.prod(catalog.size(v) for v in merged.vars | last.vars)
            note_products(sizes, dense_size, self.counters)
        else:
            pairs = [Member(r.body, [r.table], r.for_vars, EMPTY) for r in last.members]
        members = sum_out_members(catalog, pairs, y, self.counters)
        kept = drop_constants(members)
        sizes = [r.size for r in members]
        return ([GroupedFactor(kept, catalog)] if kept else []), sizes, sum(sizes)

    def finish(self) -> Table:
        """Multiply the remaining groups pairwise (the tabular engine's final
        product, group by group) and tile the resulting complete confactor
        set densely over its variables."""
        merged = self._merge(self.items)
        return tile_confactors(merged.members, merged.vars, self.net.catalog)


tve_query = TreeVE.answer
