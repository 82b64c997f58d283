"""Tree-based variable elimination.

Follows the tabular engine's schedule exactly (the same factors are
multiplied and the same variable summed out at each step) but represents
every factor as a complete confactor set, so each multiplication only pays
for the compatible pieces.  This is the control that separates the benefit
of contextual tables from the benefit of contextual VE's lazy multiplication:
here every pending multiplication is performed eagerly, as in the tabular
engine.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .confactor import Confactor
from .counters import CostCounters
from .engine_cve import (
    incorporate_evidence,
    observed_scalar_is_zero,
    sum_out_confactor_set,
)
from .errors import InvariantError, ZeroEvidenceError
from .network import ContextualBeliefNetwork
from .orders import check_order, min_size_order
from .posterior import Posterior, normalize_posterior, tile_confactors
from .tables import (
    Context,
    DomainCatalog,
    VariableId,
    compatible,
    context_union,
    product,
    set_table,
)


class GroupedFactor:
    """A complete confactor set standing in for one tabular factor."""

    __slots__ = ("gid", "members", "signature")

    def __init__(self, gid: frozenset[int], members: Sequence[Confactor]):
        self.gid = gid
        self.members = list(members)
        self.signature: frozenset[int] = frozenset(
            v for r in self.members for v in r.variables()
        )

    def total_size(self) -> int:
        return sum(r.size for r in self.members)

    def signature_space(self, catalog: DomainCatalog) -> int:
        return math.prod(catalog.size(v) for v in self.signature) if self.signature else 1

    def involves(self, var: VariableId) -> bool:
        return var in self.signature


def tve_multiply(
    catalog: DomainCatalog,
    g1: GroupedFactor,
    g2: GroupedFactor,
    counters=None,
) -> GroupedFactor:
    """Multiply two grouped factors member by member.

    Every compatible member pair contributes the union of its bodies and the
    product of its mutually reduced tables; incompatible pairs vanish.  The
    result is complete again and its total table size never exceeds the size
    of the corresponding dense factor.
    """
    members = []
    for a in g1.members:
        for b in g2.members:
            if not compatible(a.body, b.body):
                continue
            body = context_union(a.body, b.body)
            table = product(
                set_table(a.table, b.body), set_table(b.table, a.body), counters
            )
            if counters is not None:
                counters.note_tables([table.size])
            members.append(
                Confactor(body, table, a.for_vars | b.for_vars, frozenset())
            )
    result = GroupedFactor(g1.gid | g2.gid, members)
    if result.total_size() > result.signature_space(catalog):
        raise InvariantError("grouped factor exceeds its dense factor size")
    return result


class TreeVE:
    """One engine instance per query over a shared immutable network."""

    def __init__(self, net: ContextualBeliefNetwork):
        self.net = net
        self.counters = CostCounters()
        self.groups: list[GroupedFactor] = []
        self._obs = Context()

    def begin(self, obs: Optional[Context] = None) -> None:
        self.counters = CostCounters()
        self._obs = obs or Context()
        self.groups = []
        if observed_scalar_is_zero(self.net.all_confactors(), self._obs):
            raise ZeroEvidenceError("evidence has probability zero")
        for x in range(self.net.n_vars()):
            members = incorporate_evidence(self.net.families[x], self._obs)
            if members:
                self.groups.append(GroupedFactor(frozenset({x}), members))

    def eliminate(self, y: VariableId) -> None:
        involved = [g for g in self.groups if g.involves(y)]
        if not involved:
            self.counters.record_elimination(y, (), 0)
            return
        rest = [g for g in self.groups if not g.involves(y)]
        catalog = self.net.catalog
        # The merge order mirrors the tabular engine: ascending by the size
        # of the dense factor each group stands for.
        involved.sort(key=lambda g: g.signature_space(catalog))
        merged = involved[0]
        for g in involved[1:]:
            merged = tve_multiply(catalog, merged, g, self.counters)
        members = sum_out_confactor_set(catalog, merged.members, y, self.counters)
        created = [r.size for r in members]
        self.counters.note_tables(created)
        result = GroupedFactor(merged.gid, members)
        if result.members:
            rest.append(result)
        self.groups = rest
        self.counters.record_elimination(y, created, result.total_size())

    def finish(self, query_vars: Sequence[VariableId]) -> Posterior:
        """Multiply the remaining groups pairwise (the tabular engine's
        renormalization, group by group) and read the posterior off the
        resulting complete confactor set."""
        catalog = self.net.catalog
        query = tuple(sorted(query_vars))
        if not self.groups:
            raise InvariantError("no grouped factors mention the query variables")
        remaining = sorted(self.groups, key=lambda g: g.signature_space(catalog))
        merged = remaining[0]
        for g in remaining[1:]:
            merged = tve_multiply(catalog, merged, g, self.counters)
        for r in merged.members:
            if not r.variables() <= set(query):
                raise InvariantError("grouped factor mentions uneliminated variables")
        if merged.signature != set(query):
            missing = sorted(set(query) - merged.signature)
            raise InvariantError(f"no grouped factor mentions: {missing}")
        table = tile_confactors(merged.members, query, catalog)
        return normalize_posterior(table, query, catalog)

    def query(
        self,
        query_vars: Sequence[VariableId],
        obs: Optional[Context] = None,
        order: Optional[Sequence[VariableId]] = None,
    ) -> Posterior:
        obs = obs or Context()
        if order is None:
            order = min_size_order(self.net, query_vars, obs)
        else:
            order = check_order(self.net, order, query_vars, obs)
        self.begin(obs)
        for y in order:
            self.eliminate(y)
        return self.finish(query_vars)


def tve_query(
    net: ContextualBeliefNetwork,
    query_vars: Sequence[VariableId],
    obs: Optional[Context] = None,
    order: Optional[Sequence[VariableId]] = None,
) -> tuple[Posterior, CostCounters]:
    engine = TreeVE(net)
    posterior = engine.query(query_vars, obs, order)
    return posterior, engine.counters
