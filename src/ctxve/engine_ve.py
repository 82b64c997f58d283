"""Tabular variable elimination.

Factors are dense tables; eliminating a variable multiplies the factors that
involve it and sums the variable out.

Each relevant family is made dense under the evidence by one rule
(:meth:`~ctxve.network.ContextualBeliefNetwork.factor_under`).  A family of
one confactor with an empty body is its own table.  A family the evidence
leaves untouched, or one some query already expanded whole, is sliced from
that whole expansion.  Any other family is tiled in the evidence's block
only, so it is never expanded whole just to be sliced.

The last pairwise product of a bucket is contracted with the sum in one
``np.einsum`` call (:func:`~ctxve.tables.contract`), so that product is
never built, and the table recorded as created for an elimination is the
summed result (multiplication counts are unaffected: a pairwise product
always costs one multiplication per entry of its result, built or not).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .network import ContextualBeliefNetwork
from .orders import Engine
from .posterior import cancels
from .tables import (
    Context,
    Table,
    VariableId,
    multiply_all,
    multiply_all_sum_out,
    product,
)


def multiply_factors(
    factors: Sequence[Table], policy: str = "left"
) -> tuple[Table, int]:
    """Product of a factor list under an explicit multiplication policy.

    Policies: ``"left"`` folds in list order, ``"right"`` folds from the end,
    and ``"recompute"`` recomputes every partial product instead of saving
    intermediates (costing ``(k-1)`` multiplications per entry of the final
    product).  The product itself does not depend on the policy; the
    multiplication count does.
    """
    if not factors:
        raise ValueError("nothing to multiply")
    if policy not in ("left", "right", "recompute"):
        raise ValueError(f"unknown policy: {policy!r}")
    ordered = list(reversed(factors)) if policy == "right" else factors
    acc, count = ordered[0], 0
    for t in ordered[1:]:
        acc = product(acc, t)
        count += acc.size
    if policy == "recompute":
        count = (len(factors) - 1) * acc.size
    return acc, count


class TabularVE(Engine):
    """Dense factors; the query lifecycle is :meth:`Engine.query`."""

    def __init__(self, net: ContextualBeliefNetwork):
        super().__init__(net)
        self.factors: list[Table] = []

    def begin(self, obs: Optional[Context] = None) -> None:
        """Make the relevant families dense under the evidence."""
        obs = obs or Context()
        self.factors = []
        for x in self.relevant:
            factor = self.net.factor_under(x, obs)
            if not cancels(factor):
                self.factors.append(factor)

    def eliminate(self, y: VariableId) -> None:
        involved: list[Table] = []
        rest: list[Table] = []
        for f in self.factors:
            (involved if y in f.vars else rest).append(f)
        if not involved:
            self.counters.record_elimination(y, (), 0)
            return
        result, created = multiply_all_sum_out(involved, y, self.counters)
        if not cancels(result):
            rest.append(result)
        self.factors = rest
        self.counters.record_elimination(y, created, sum(created))

    def finish(self) -> Table:
        acc, _ = multiply_all(self.factors, self.counters)
        return acc


ve_query = TabularVE.answer
