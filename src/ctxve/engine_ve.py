"""Tabular variable elimination.

Factors are dense tables; eliminating a variable multiplies the factors that
involve it and sums the variable out.

Each relevant family is made dense under the evidence by one rule
(:meth:`~ctxve.network.ContextualBeliefNetwork.factor_under`).  A family of
one confactor with an empty body is its own table.  A family the evidence
leaves untouched, or one some query already expanded whole, is sliced from
that whole expansion.  Any other family is tiled in the evidence's block
only, so it is never expanded whole just to be sliced.

A bucket is multiplied and summed by
:func:`~ctxve.tables.multiply_all_sum_out`: a small bucket in one
``np.einsum`` call over all its tables, a large one by building all but its
last pairwise product.  The sizes recorded as created for an elimination
are the smallest-first fold's intermediate products, built or not, and the
summed result in place of the last product; a pairwise product costs one
multiplication per entry of its result, built or not.
"""

from __future__ import annotations

from typing import Optional

from .orders import Engine
from .posterior import cancels
from .tables import (
    Context,
    Table,
    VariableId,
    multiply_all,
    multiply_all_sum_out,
)


class TabularVE(Engine):
    """Dense factors; the query and its elimination loop are :class:`Engine`'s."""

    def begin(self, obs: Optional[Context] = None) -> None:
        """Make the relevant families dense under the evidence."""
        obs = obs or Context()
        items = []
        for x in self.relevant:
            factor = self.net.factor_under(x, obs)
            if not cancels(factor):
                items.append(factor)
        self.items = items

    def step(self, y: VariableId, bucket: list[Table]) -> tuple:
        result, created = multiply_all_sum_out(bucket, y, self.counters)
        return ([] if cancels(result) else [result]), created, sum(created)

    def finish(self) -> Table:
        acc, _ = multiply_all(self.items, self.counters)
        return acc


ve_query = TabularVE.answer
