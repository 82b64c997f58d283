"""Contextual variable elimination.

The working state is a multiset of confactors.  Eliminating a variable Y
partitions it into the confactors for Y (a complete set descended from Y's
family), the other confactors involving Y, and the rest.  Each confactor
involving Y is absorbed into the complete set: members incompatible with it
pass through, compatible members are split so that exactly one piece matches
and that piece collects the incoming table.  Absorbed tables are multiplied
lazily: each member keeps a list of tables (a
:class:`~ctxve.confactor.Member`).

Summing Y out of the members is :func:`sum_out_members`, the one sum-out
step of both contextual engines (the tree engine calls it too).  Table
occurrences are multiplied smallest first by the tabular engine's kernel
(:func:`~ctxve.tables.multiply_all_sum_out`), whose last product is
contracted with the sum over Y and never built, so the multiplication order
inside one context mirrors the tabular engine's ascending-size policy rather
than the incidental absorption order.  Body occurrences are added across Y's
values with the group-sum operator.  Members still pure for Y (never
multiplied since leaving Y's family) sum to all-ones tables, so they are
dropped instead of summed; a group-sum output is dropped only when every
piece that fed it was pure, because a pure piece can face an impure sibling
at another value.  This pruning is the one part of the step the tree engine
never takes: it passes its members with empty purity.

Splitting goes through :func:`~ctxve.confactor.split_on_context` and the
audit's dense expansions through :func:`~ctxve.confactor.tile`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .confactor import (
    EMPTY,
    Confactor,
    Member,
    pairwise,
    partition_faults,
    split_on_context,
    tile,
)
from .counters import CostCounters
from .errors import InvariantError, ZeroEvidenceError
from .network import ContextualBeliefNetwork, joint_table
from .orders import Engine
from .posterior import Posterior, cancels, extract_posterior
from .tables import (
    Context,
    DomainCatalog,
    Table,
    VariableId,
    add_tables,
    compatible,
    multiply_all,
    multiply_all_sum_out,
    set_table,
    sum_out,
)

# Largest joint state space the audit expands densely.
AUDIT_CAP = 1 << 16
_ONE = Table.scalar(1.0)


def incorporate_evidence(
    confactors: Sequence[Confactor], obs: Context
) -> list[Confactor]:
    """Simplify a confactor multiset by an observation, in three steps: drop
    confactors whose bodies contradict it, erase the satisfied body terms,
    substitute the observation into every table.  Confactors left with no
    variables at all are constants and are dropped (:func:`cancels`).  A
    confactor with no observed body or table variable is returned itself,
    shared rather than copied: no code mutates a confactor once built.

    Raises :class:`ZeroEvidenceError` when a dropped constant is zero, or
    when every confactor for an unobserved variable is dropped (possible
    only on force-loaded, non-exhaustive networks): nothing then supports
    the observation.
    """
    out = []
    dropped: set[int] = set()
    for r in confactors:
        if not compatible(r.body, obs):
            dropped |= r.for_vars
            continue
        body, table = r.body, r.table
        if not obs.isdisjoint(body.vars()):
            body = Context(p for p in body.items() if p[0] not in obs)
        if not obs.isdisjoint(table.vars):
            table = set_table(table, obs)
        if not body and cancels(table):
            dropped |= r.for_vars
            continue
        if body is not r.body or table is not r.table:
            r = Confactor(body, table, r.for_vars, r.pure_for)
        out.append(r)
    if dropped:
        kept = {v for r in out for v in r.for_vars}
        if any(v not in obs and v not in kept for v in dropped):
            raise ZeroEvidenceError("evidence has probability zero")
    return out


def sum_out_body_occurrences(
    groups: Sequence[Sequence[Confactor]], counters=None
) -> list[Confactor]:
    """Group-sum across the per-value confactor groups of a variable.

    ``groups[i]`` holds the confactors that carried value i of the variable
    in their bodies, with that term already stripped.  The groups are folded
    with :func:`~ctxve.confactor.pairwise` and ``add_tables``: compatible
    members contribute the union of their bodies and the pointwise sum of
    their mutually reduced tables.
    """
    sizes = [len(g) for g in groups]
    if any(sizes) and not all(sizes):
        raise InvariantError(
            "per-value groups do not cover the same contexts (empty sibling group)"
        )
    if not groups or not groups[0]:
        return []
    acc = list(groups[0])
    for other in groups[1:]:
        acc = pairwise(acc, other, add_tables, counters)
    return acc


def sum_out_members(
    catalog: DomainCatalog,
    members: Sequence[Member],
    y: VariableId,
    counters: CostCounters,
) -> list[Confactor]:
    """Eliminate ``y`` from a set of members that all involve it.

    A member with ``y`` in a table has its lazy product multiplied and
    contracted over ``y`` (:func:`~ctxve.tables.multiply_all_sum_out`),
    unless it is still pure for ``y``: then its tables are an untouched
    family fragment whose sum over ``y`` is all ones, and it is dropped.
    Members with ``y`` in the body are multiplied out and group-summed
    across ``y``'s values (:func:`sum_out_body_occurrences`); a fold output
    is dropped only when every piece that fed it was pure, because a pure
    piece can face an impure sibling at another value.  ``y`` is stripped
    from the outputs' bookkeeping.  Members given ``pure_for=EMPTY`` are
    never dropped.
    """
    out: list[Confactor] = []
    groups: list[list[Confactor]] = [[] for _ in range(catalog.size(y))]
    for m in members:
        if y in m.body:
            acc, sizes = multiply_all(m.tables, counters)
            counters.note_tables(sizes)
            groups[m.body.get(y)].append(
                Confactor(m.body.without(y), acc, m.for_vars, m.pure_for)
            )
            continue
        for t in m.tables:
            if y in t.vars:
                break
        else:
            raise InvariantError("member does not involve the eliminated variable")
        if y in m.pure_for:
            continue
        result, sizes = multiply_all_sum_out(m.tables, y, counters)
        counters.note_tables(sizes)
        out.append(Confactor(m.body, result, m.for_vars - {y}, m.pure_for - {y}))
    for r in sum_out_body_occurrences(groups, counters):
        if y not in r.pure_for:
            out.append(Confactor(r.body, r.table, r.for_vars - {y}, r.pure_for - {y}))
    return out


class ContextualVE(Engine):
    """Confactor multisets; the query lifecycle is :meth:`Engine.query`."""

    def __init__(self, net: ContextualBeliefNetwork, audit: bool = False):
        super().__init__(net)
        self.audit = audit
        self.base: list[Confactor] = []
        self._obs = Context()
        self._eliminated: list[VariableId] = []
        self._reference: Optional[Table] = None

    def confactors_for(self, x: VariableId) -> list[Confactor]:
        return [r for r in self.base if x in r.for_vars]

    # -- elimination steps --------------------------------------------------

    def begin(self, obs: Optional[Context] = None) -> None:
        self._obs = obs or Context()
        self._eliminated = []
        self.base = incorporate_evidence(self.net.all_confactors(), self._obs)
        if self.audit:
            self._reference = joint_table(self.net, self._obs, cap=AUDIT_CAP)
            self._check_invariants()

    def eliminate(self, y: VariableId) -> None:
        r_minus: list[Confactor] = []
        r_plus: list[Confactor] = []
        r_star: list[Confactor] = []
        for r in self.base:
            if y in r.for_vars:
                if not r.involves(y):
                    raise InvariantError(
                        "confactor tracked for a variable it does not involve"
                    )
                r_plus.append(r)
            elif r.involves(y):
                r_star.append(r)
            else:
                r_minus.append(r)
        created = self._absorb(y, r_plus, r_star)
        # Step size: the created confactors and the survivors sharing a for_var.
        changed: set[int] = set()
        for c in created:
            changed |= c.for_vars
        elim_size = sum(c.size for c in created) + sum(
            c.size for c in r_minus if not changed.isdisjoint(c.for_vars)
        )
        self.counters.record_elimination(y, [c.size for c in created], elim_size)
        # The base stays in insertion order: survivors first, then the
        # confactors this elimination created.
        self.base = r_minus + created
        self._eliminated.append(y)
        if self.audit:
            self._check_invariants()

    def finish(self, query_vars: Sequence[VariableId]) -> Table:
        return extract_posterior(self.base, self.net.catalog, self.counters)

    # -- absorption ---------------------------------------------------------

    def _absorb(
        self, y: VariableId, r_plus: list[Confactor], r_star: list[Confactor]
    ) -> list[Confactor]:
        catalog = self.net.catalog
        counters = self.counters
        if r_star and not r_plus:
            raise InvariantError(
                "no tracked confactors left to absorb into; invariant breach"
            )
        members = [
            Member(r.body, [r.table], r.for_vars, r.pure_for) for r in r_plus
        ]
        # Shortest bodies first; the sort is stable, so ties keep the base's
        # insertion order.
        for r in sorted(r_star, key=lambda r: len(r.body)):
            nxt: list[Member] = []
            landed = False
            for m in members:
                if not compatible(m.body, r.body):
                    nxt.append(m)
                    continue
                landed = True
                residuals, (body, tables) = split_on_context(
                    catalog, m.body, m.tables, r.body, counters
                )
                for piece_body, piece_tables in residuals:
                    nxt.append(Member(piece_body, piece_tables, m.for_vars, m.pure_for))
                nxt.append(
                    Member(
                        body,
                        tables + [set_table(r.table, body)],
                        m.for_vars | r.for_vars,
                        r.pure_for if y in m.pure_for else EMPTY,
                    )
                )
            if not landed:
                raise InvariantError(
                    "absorbed confactor found no compatible member; incomplete cover"
                )
            members = nxt
        return sum_out_members(catalog, members, y, counters)

    # -- debug auditing -------------------------------------------------------

    def _check_invariants(self) -> None:
        assert self._reference is not None
        catalog = self.net.catalog
        gone = set(self._obs.vars()) | set(self._eliminated)
        remaining = [v for v in range(self.net.n_vars()) if v not in gone]
        marginal = self._reference
        for v in self._eliminated:
            marginal = sum_out(marginal, v)
        # Product of the applicable confactor values must be proportional to
        # the evidence-weighted marginal, everywhere.
        prod_arr = np.ones(catalog.shape(remaining))
        covered = {v: np.zeros(catalog.shape(remaining), dtype=bool) for v in remaining}
        for r in self.base:
            # a confactor still pure for something was never multiplied, so
            # it cannot have gathered any other provenance
            if r.pure_for and r.pure_for != r.for_vars:
                raise InvariantError("pure bookkeeping out of sync with provenance")
            prod_arr = prod_arr * tile([r], remaining, catalog, 1.0)
            body_mask = tile([Confactor(r.body, _ONE)], remaining, catalog, 0.0) == 1.0
            for v in r.variables():
                covered[v] |= body_mask
        for v, mask in covered.items():
            if not mask.all():
                raise InvariantError(
                    f"variable {catalog.names[v]} lacks an applicable confactor somewhere"
                )
        ref = np.transpose(
            marginal.array, [marginal.vars.index(v) for v in remaining]
        ) if remaining else marginal.array
        total_prod = prod_arr.sum()
        total_ref = ref.sum()
        if total_prod > 0 and total_ref > 0:
            scale = total_ref / total_prod
            if not np.allclose(prod_arr * scale, ref, atol=1e-9, rtol=0.0):
                raise InvariantError("confactor products diverge from the joint")
        # Each tracked family must stay mutually exclusive and covering.
        for x in remaining:
            faults = partition_faults(catalog, [r.body for r in self.confactors_for(x)])
            if faults:
                raise InvariantError(
                    f"tracked confactors for {catalog.names[x]}: " + "; ".join(faults)
                )


def cve_query(
    net: ContextualBeliefNetwork,
    query_vars: Sequence[VariableId],
    obs: Optional[Context] = None,
    order: Optional[Sequence[VariableId]] = None,
    audit: bool = False,
) -> tuple[Posterior, CostCounters]:
    engine = ContextualVE(net, audit=audit)
    return engine.query(query_vars, obs, order), engine.counters
