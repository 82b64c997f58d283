"""Confactor primitives: applicability, splitting and the order-independent
piece count.  A split order other than ``split_on_context``'s own is one call
per variable (``conftest.residual``)."""

import itertools

import numpy as np
import pytest

from ctxve import (
    Confactor,
    Context,
    DomainCatalog,
    SplitMix64,
    Table,
    compatible,
    count_split_pieces,
    split_on_context,
    value_at,
)
from ctxve.counters import CostCounters

from conftest import ctx, residual, table, tree_catalog


@pytest.fixture
def cat():
    return tree_catalog()


def conf(cat, body, names, values):
    return Confactor(ctx(cat, body), table(cat, names, values))


def split_keep(cat, r, c):
    """The kept piece of splitting ``r`` on ``c``, as a confactor."""
    _, (body, (t,)) = split_on_context(cat, r.body, [r.table], c)
    return Confactor(body, t, r.for_vars, r.pure_for)


def split(cat, r, c):
    """Every piece of splitting ``r`` on ``c``: residuals, then the kept one."""
    return residual(cat, r, c) + [split_keep(cat, r, c)]


class TestApplicability:
    def test_body_subset_of_context(self, cat):
        r = conf(cat, "a=true", ["b", "e"], [0.55, 0.45, 0.3, 0.7])
        assert compatible(r.body, ctx(cat, "a=true,y=true"))

    def test_body_clash(self, cat):
        r = conf(cat, "a=false,c=true", ["e"], [0.08, 0.92])
        assert not compatible(r.body, ctx(cat, "a=true"))

    def test_longer_body_against_full_context(self, cat):
        r = conf(cat, "a=false,c=false,d=true", ["b", "e"], [0.025, 0.975, 0.85, 0.15])
        assert compatible(r.body, ctx(cat, "a=false,b=false,c=false,d=true"))

    def test_value_lookup(self, cat):
        r = conf(cat, "a=true", ["b", "e"], [0.55, 0.45, 0.3, 0.7])
        c = ctx(cat, "a=true,b=true,e=true,y=false")
        assert value_at(r, c) == pytest.approx(0.55)

    def test_value_of_scalar_confactor(self, cat):
        r = Confactor(
            ctx(cat, "a=false,c=false,d=true,z=true"), Table.scalar(0.29)
        )
        assert value_at(r, ctx(cat, "a=false,c=false,d=true,z=true,e=true")) == 0.29

    def test_value_requires_table_variables(self, cat):
        r = conf(cat, "a=false,c=false,d=false", ["e"], [0.5, 0.5])
        with pytest.raises(ValueError, match="context does not determine table"):
            value_at(r, ctx(cat, "a=false,c=false,d=false"))

    def test_value_for_complete_context(self, cat):
        r = conf(cat, "a=false,c=false,d=false", ["e"], [0.5, 0.5])
        assert value_at(r, ctx(cat, "a=false,c=false,d=false,e=true")) == 0.5


class TestSplitOnVariable:
    """Splitting on a context that assigns one new variable."""

    def test_split_copies_table_for_foreign_variable(self, cat):
        r = conf(cat, "a=true", ["b", "e"], [0.55, 0.45, 0.3, 0.7])
        pieces = split(cat, r, ctx(cat, "y=true"))
        assert [p.body for p in pieces] == [
            ctx(cat, "a=true,y=false"),
            ctx(cat, "a=true,y=true"),
        ]
        for p in pieces:
            np.testing.assert_allclose(p.table.array, r.table.array)

    def test_split_on_table_variable_slices(self, cat):
        r = conf(cat, "z=false", ["d", "y"], [0.79, 0.59, 0.21, 0.41])
        rest, kept = split(cat, r, ctx(cat, "d=true"))
        assert kept.body == ctx(cat, "d=true,z=false")
        np.testing.assert_allclose(kept.table.array, [0.79, 0.59])
        assert rest.body == ctx(cat, "d=false,z=false")
        np.testing.assert_allclose(rest.table.array, [0.21, 0.41])

    def test_split_scalar_pieces(self, cat):
        r = conf(cat, "a=false,z=true", ["d"], [0.29, 0.71])
        pieces = split(cat, r, ctx(cat, "c=true"))
        assert [p.body for p in pieces] == [
            ctx(cat, "a=false,c=false,z=true"),
            ctx(cat, "a=false,c=true,z=true"),
        ]

    def test_split_counter_and_bookkeeping(self, cat):
        counters = CostCounters()
        base = Confactor(
            ctx(cat, "a=true"),
            table(cat, ["b", "e"], [0.55, 0.45, 0.3, 0.7]),
            frozenset({cat.index("e")}),
            frozenset({cat.index("e")}),
        )
        pieces = residual(cat, base, ctx(cat, "y=true"), counters)
        assert counters.splits == 1
        for p in pieces:
            assert p.for_vars == base.for_vars
            assert p.pure_for == base.pure_for

    def test_split_slices_every_table_of_a_lazy_product(self, cat):
        t1 = table(cat, ["b", "e"], [0.55, 0.45, 0.3, 0.7])
        t2 = table(cat, ["b", "z"], [0.77, 0.17, 0.23, 0.83])
        residuals, (body, tables) = split_on_context(
            cat, ctx(cat, "a=true"), [t1, t2], ctx(cat, "b=false")
        )
        assert body == ctx(cat, "a=true,b=false")
        np.testing.assert_allclose(tables[0].array, [0.3, 0.7])
        np.testing.assert_allclose(tables[1].array, [0.23, 0.83])
        [(res_body, res_tables)] = residuals
        assert res_body == ctx(cat, "a=true,b=true")
        np.testing.assert_allclose(res_tables[0].array, [0.55, 0.45])
        np.testing.assert_allclose(res_tables[1].array, [0.77, 0.17])


class TestResidual:
    def test_table_variables_split_first(self, cat):
        # body a,b; table over c,d; split context assigns c and e
        t1 = table(cat, ["c", "d"], [0.2, 0.8, 0.6, 0.4])
        r = Confactor(ctx(cat, "a=true,b=true"), t1)
        target = ctx(cat, "c=true,e=true")
        pieces = residual(cat, r, target)
        assert len(pieces) == 2
        first, second = pieces
        assert first.body == ctx(cat, "a=true,b=true,c=false")
        np.testing.assert_allclose(first.table.array, [0.6, 0.4])
        assert second.body == ctx(cat, "a=true,b=true,c=true,e=false")
        np.testing.assert_allclose(second.table.array, [0.2, 0.8])
        keep = split_keep(cat, r, target)
        assert keep.body == ctx(cat, "a=true,b=true,c=true,e=true")
        np.testing.assert_allclose(keep.table.array, [0.2, 0.8])

    def test_reverse_split_order(self, cat):
        t1 = table(cat, ["c", "d"], [0.2, 0.8, 0.6, 0.4])
        r = Confactor(ctx(cat, "a=true,b=true"), t1)
        target = ctx(cat, "c=true,e=true")
        pieces = residual(cat, r, target, order=[cat.index("e"), cat.index("c")])
        assert pieces[0].body == ctx(cat, "a=true,b=true,e=false")
        assert pieces[0].table.vars == t1.vars
        assert pieces[1].body == ctx(cat, "a=true,b=true,c=false,e=true")

    def test_context_inside_body_yields_nothing(self, cat):
        r = conf(cat, "a=true,b=false", ["e"], [0.3, 0.7])
        assert residual(cat, r, ctx(cat, "a=true")) == []
        assert split_keep(cat, r, Context()).body == r.body

    def test_body_only_splits(self, cat):
        t2 = table(cat, ["e"], [0.4, 0.6])
        r = Confactor(ctx(cat, "a=true,d=true"), t2)
        target = ctx(cat, "a=true,b=true,c=false")
        pieces = residual(cat, r, target)
        assert [p.body for p in pieces] == [
            ctx(cat, "a=true,b=false,d=true"),
            ctx(cat, "a=true,b=true,c=true,d=true"),
        ]
        keep = split_keep(cat, r, target)
        assert keep.body == ctx(cat, "a=true,b=true,c=false,d=true")


class TestPartition:
    def multi_catalog(self):
        return DomainCatalog(
            [
                ("u", ("0", "1", "2")),
                ("v", ("0", "1")),
                ("w", ("0", "1", "2", "3")),
                ("q", ("0", "1")),
                ("x", ("0", "1")),
            ]
        )

    def test_pieces_partition_coverage(self):
        cat = self.multi_catalog()
        x = cat.index("x")
        t = cat.table((cat.index("w"), x), [0.1, 0.9, 0.3, 0.7, 0.6, 0.4, 0.2, 0.8])
        r = Confactor(ctx(cat, "v=1"), t)
        target = ctx(cat, "u=2,w=1,q=0")
        pieces = split(cat, r, target)
        # For every completion of the original body, exactly one piece
        # applies and it reproduces the original value.
        for combo in itertools.product(*(range(cat.size(v)) for v in range(len(cat)))):
            full = Context(list(enumerate(combo)))
            if not compatible(r.body, full):
                continue
            hits = [p for p in pieces if compatible(p.body, full)]
            assert len(hits) == 1
            assert value_at(hits[0], full) == pytest.approx(value_at(r, full))
        for p1, p2 in itertools.combinations(pieces, 2):
            assert not compatible(p1.body, p2.body)

    def test_piece_count_formula(self):
        cat = self.multi_catalog()
        x = cat.index("x")
        t = cat.table((x,), [0.5, 0.5])
        r = Confactor(ctx(cat, "v=1"), t)
        # one new binary variable -> 1 piece
        assert count_split_pieces(cat, r, ctx(cat, "v=1,q=0")) == 1
        # one new ternary + one new binary -> 3
        assert count_split_pieces(cat, r, ctx(cat, "u=1,q=0")) == 3
        # no new variables -> 0
        assert count_split_pieces(cat, r, ctx(cat, "v=1")) == 0

    def test_residual_count_independent_of_order(self):
        # Randomized pairs with mixed domain sizes; every admissible split
        # order produces the same number of residual pieces and splits.
        rng = SplitMix64(2024)
        names = ["u", "v", "w", "q", "x"]
        for trial in range(300):
            sizes = [2 + rng.below(3) for _ in names]
            cat = DomainCatalog(
                [(n, tuple(str(i) for i in range(s))) for n, s in zip(names, sizes)]
            )
            ids = list(range(len(names)))
            body_var = ids[rng.below(len(ids))]
            table_candidates = [v for v in ids if v != body_var]
            t_var = table_candidates[rng.below(len(table_candidates))]
            body = Context([(body_var, rng.below(cat.size(body_var)))])
            t = cat.table((t_var,), [1.0] * cat.size(t_var))
            r = Confactor(body, t)
            c_vars = [v for v in ids if rng.below(2) == 0 and v != body_var]
            target = Context([(v, rng.below(cat.size(v))) for v in c_vars])
            expected = count_split_pieces(cat, r, target)
            new_vars = [v for v in target.vars() if v not in r.body]
            orders = [new_vars, list(reversed(new_vars))]
            for _ in range(2):
                shuffled = list(new_vars)
                for i in range(len(shuffled) - 1, 0, -1):
                    j = rng.below(i + 1)
                    shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
                orders.append(shuffled)
            for order in orders:
                counters = CostCounters()
                got = residual(cat, r, target, counters, order)
                assert len(got) == counters.splits == expected
