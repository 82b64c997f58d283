"""Core table algebra against brute-force oracles and hand-checked values."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ctxve import (
    Context,
    DomainCatalog,
    IncompatibleContextsError,
    Table,
    add_tables,
    compatible,
    context_union,
    product,
    set_table,
    sum_out,
)
from ctxve import tables
from ctxve.counters import CostCounters
from ctxve.tables import multiply_all, multiply_all_sum_out

from conftest import F, T, ctx, dense_e_rows, table, tree_catalog


@pytest.fixture
def cat():
    return tree_catalog()


def dense_e_table(cat) -> Table:
    rows = dense_e_rows()
    vars = tuple(cat.index(n) for n in ["a", "b", "c", "d", "e"])
    arr = np.zeros((2, 2, 2, 2, 2))
    for (a, b, c, d), p in rows.items():
        arr[a, b, c, d, T] = p
        arr[a, b, c, d, F] = 1 - p
    return Table(vars, arr)


class TestContext:
    def test_direct_clash_is_incompatible(self, cat):
        assert not compatible(ctx(cat, "a=true"), ctx(cat, "a=false"))

    def test_no_shared_clash_is_compatible(self, cat):
        c1 = ctx(cat, "a=true,b=false")
        c2 = ctx(cat, "b=false,c=true")
        assert compatible(c1, c2)

    def test_empty_context_compatible_with_all(self, cat):
        for text in ["", "a=true", "a=false,b=true,c=false"]:
            assert compatible(Context(), ctx(cat, text))

    def test_union_merges_assignments(self, cat):
        got = context_union(ctx(cat, "a=true"), ctx(cat, "b=false"))
        assert got == ctx(cat, "a=true,b=false")

    def test_union_idempotent_on_overlap(self, cat):
        got = context_union(ctx(cat, "a=true,b=false"), ctx(cat, "b=false"))
        assert got == ctx(cat, "a=true,b=false")

    def test_union_of_disjoint_negative_contexts(self, cat):
        got = context_union(ctx(cat, "a=false"), ctx(cat, "c=false,d=true"))
        assert got == ctx(cat, "a=false,c=false,d=true")

    def test_union_rejects_incompatible(self, cat):
        with pytest.raises(IncompatibleContextsError, match="incompatible contexts"):
            context_union(ctx(cat, "a=true"), ctx(cat, "a=false"))

    def test_parse_context_drops_empty_items(self, cat):
        assert cat.parse_context("a=true,") == cat.parse_context("a=true")
        assert cat.parse_context(",") == Context()


# A context against a plain-dict model: small variable ids and values, so
# that clashes and shared variables are common.
_VAR = st.integers(0, 5)
_VAL = st.integers(0, 2)
_ASSIGNMENT = st.dictionaries(_VAR, _VAL, max_size=6)


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(_VAR, _VAL), max_size=6), var=_VAR, val=_VAL, data=st.data())
def test_context_matches_a_dict_model(pairs, var, val, data):
    if len(set(pairs)) != len({v for v, _ in pairs}):
        with pytest.raises(IncompatibleContextsError, match="incompatible contexts"):
            Context(pairs)
        return
    model = dict(pairs)
    c = Context(pairs)
    assert c.vars() == tuple(sorted(model))
    assert c.items() == tuple(sorted(model.items()))
    assert (len(c), bool(c)) == (len(model), bool(model))
    for v in range(7):
        assert c.get(v) == model.get(v)
        assert (v in c) == (v in model)
        assert c.isdisjoint((v, var)) == (v not in model and var not in model)
    shuffled = Context(data.draw(st.permutations(pairs), label="shuffled"))
    assert shuffled == c and hash(shuffled) == hash(c)
    assert c.without(var).items() == tuple(sorted((v, x) for v, x in model.items() if v != var))
    if model.get(var, val) != val:
        with pytest.raises(IncompatibleContextsError, match="incompatible contexts"):
            c.with_assignment(var, val)
    else:
        assert c.with_assignment(var, val).items() == tuple(sorted({**model, var: val}.items()))


@settings(max_examples=200, deadline=None)
@given(m1=_ASSIGNMENT, m2=_ASSIGNMENT)
def test_compatible_and_union_match_a_dict_model(m1, m2):
    c1, c2 = Context(m1.items()), Context(m2.items())
    agree = all(m2.get(v, x) == x for v, x in m1.items())
    assert compatible(c1, c2) == compatible(c2, c1) == agree
    if agree:
        assert context_union(c1, c2).items() == tuple(sorted({**m1, **m2}.items()))
    else:
        with pytest.raises(IncompatibleContextsError, match="incompatible contexts"):
            context_union(c1, c2)


class TestSetTable:
    def test_partial_evaluation_of_dense_conditional(self, cat):
        f = dense_e_table(cat)
        got = set_table(f, ctx(cat, "a=false,b=true,e=true"))
        assert got.vars == (cat.index("c"), cat.index("d"))
        np.testing.assert_allclose(
            got.array, [[0.08, 0.08], [0.025, 0.5]], atol=1e-12
        )

    def test_empty_context_is_identity(self, cat):
        f = dense_e_table(cat)
        assert set_table(f, Context()) is f

    def test_set_to_scalar(self, cat):
        t7 = table(cat, ["d"], [0.29, 0.71])
        got = set_table(t7, ctx(cat, "d=true"))
        assert got.vars == ()
        assert got.array == pytest.approx(0.29)

    def test_untouched_variables_ignored(self, cat):
        t7 = table(cat, ["d"], [0.29, 0.71])
        assert set_table(t7, ctx(cat, "a=true,b=false")) is t7

    def test_chained_sets_equal_union_set(self, cat):
        f = dense_e_table(cat)
        c1, c2 = ctx(cat, "a=true,e=false"), ctx(cat, "b=false,d=true")
        once = set_table(f, context_union(c1, c2))
        twice = set_table(set_table(f, c1), c2)
        assert once.vars == twice.vars
        np.testing.assert_allclose(once.array, twice.array)


class TestProduct:
    def test_shared_variable_entry(self, cat):
        t1 = table(cat, ["b", "e"], [0.55, 0.45, 0.3, 0.7])
        t5 = table(cat, ["b", "z"], [0.77, 0.17, 0.23, 0.83])
        got = product(t1, t5)
        assert set(got.vars) == {cat.index("b"), cat.index("e"), cat.index("z")}
        assert got.lookup(
            {cat.index("b"): T, cat.index("e"): T, cat.index("z"): T}
        ) == pytest.approx(0.4235)

    def test_scalar_one_is_identity(self, cat):
        f = table(cat, ["b", "e"], [0.55, 0.45, 0.3, 0.7])
        got = product(f, Table.scalar(1.0))
        assert got.vars == f.vars
        np.testing.assert_allclose(got.array, f.array)

    def test_scalar_scales_table(self, cat):
        t3 = table(cat, ["b", "e"], [0.025, 0.975, 0.85, 0.15])
        got = product(Table.scalar(0.29), t3)
        np.testing.assert_allclose(got.array, 0.29 * t3.array)

    def test_counts_result_entries(self, cat):
        counters = CostCounters()
        t1 = table(cat, ["b", "e"], [0.55, 0.45, 0.3, 0.7])
        t5 = table(cat, ["b", "z"], [0.77, 0.17, 0.23, 0.83])
        product(t1, t5, counters)
        assert counters.multiplications == 8


class TestSumOut:
    def test_marginalizes_one_axis(self, cat):
        prod = product(
            table(cat, ["b", "e"], [0.55, 0.45, 0.3, 0.7]),
            table(cat, ["b", "z"], [0.77, 0.17, 0.23, 0.83]),
        )
        got = sum_out(prod, cat.index("b"))
        assert got.lookup({cat.index("e"): T, cat.index("z"): T}) == pytest.approx(0.4925)

    def test_conditional_sums_to_ones(self, cat):
        t1 = table(cat, ["b", "e"], [0.55, 0.45, 0.3, 0.7])
        got = sum_out(t1, cat.index("e"))
        np.testing.assert_allclose(got.array, [1.0, 1.0])

    def test_prior_sums_to_scalar_one(self, cat):
        t7 = table(cat, ["d"], [0.29, 0.71])
        got = sum_out(t7, cat.index("d"))
        assert got.vars == ()
        assert float(got.array) == pytest.approx(1.0)

    def test_missing_variable_errors(self, cat):
        t7 = table(cat, ["d"], [0.29, 0.71])
        with pytest.raises(ValueError, match="variable not in table"):
            sum_out(t7, cat.index("b"))

    def test_addition_counter(self, cat):
        counters = CostCounters()
        t = table(cat, ["b", "e"], [0.1, 0.9, 0.4, 0.6])
        sum_out(t, cat.index("b"), counters)
        assert counters.additions == 2


class TestAddTables:
    def test_weighted_mixture_entry(self, cat):
        t3 = table(cat, ["b", "e"], [0.025, 0.975, 0.85, 0.15])
        t4 = table(cat, ["e"], [0.5, 0.5])
        got = add_tables(
            product(Table.scalar(0.29), t3), product(Table.scalar(0.71), t4)
        )
        assert got.lookup({cat.index("b"): T, cat.index("e"): T}) == pytest.approx(0.36225)

    def test_zero_table_is_identity(self, cat):
        f = table(cat, ["b", "e"], [0.55, 0.45, 0.3, 0.7])
        zero = table(cat, ["b", "e"], [0.0] * 4)
        got = add_tables(f, zero)
        np.testing.assert_allclose(got.array, f.array)

    def test_union_add_against_cellwise_oracle(self, cat):
        t3 = table(cat, ["b", "e"], [0.025, 0.975, 0.85, 0.15])
        t5 = table(cat, ["b", "z"], [0.77, 0.17, 0.23, 0.83])
        got = add_tables(t3, t5)
        b, e, z = cat.index("b"), cat.index("e"), cat.index("z")
        for vb, ve, vz in itertools.product((T, F), repeat=3):
            want = t3.lookup({b: vb, e: ve}) + t5.lookup({b: vb, z: vz})
            assert got.lookup({b: vb, e: ve, z: vz}) == pytest.approx(want)
        assert got.lookup({b: T, e: T, z: T}) == pytest.approx(0.795)


def test_layout_last_variable_fastest(cat):
    vars = tuple(cat.index(n) for n in ["a", "b", "c"])
    flat = list(range(8))
    t = cat.table(vars, flat)
    for i, (va, vb, vc) in enumerate(itertools.product((0, 1), repeat=3)):
        assert t.flat[i] == flat[i]
        assert t.lookup({vars[0]: va, vars[1]: vb, vars[2]: vc}) == flat[i]


# Randomized-oracle coverage: every primitive against cell-by-cell
# enumeration on small multi-valued tables.


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_product_and_add_match_enumeration(data):
    sizes = data.draw(st.lists(st.integers(2, 3), min_size=2, max_size=4), label="sizes")
    cat = DomainCatalog(
        [(f"v{i}", tuple(f"k{j}" for j in range(s))) for i, s in enumerate(sizes)]
    )
    ids = list(range(len(sizes)))
    k1 = data.draw(st.integers(1, len(ids)), label="k1")
    k2 = data.draw(st.integers(1, len(ids)), label="k2")
    vars1 = tuple(data.draw(st.permutations(ids), label="p1")[:k1])
    vars2 = tuple(data.draw(st.permutations(ids), label="p2")[:k2])
    vals1 = [
        data.draw(st.floats(0, 1, allow_nan=False), label="x1")
        for _ in range(int(np.prod(cat.shape(vars1))))
    ]
    vals2 = [
        data.draw(st.floats(0, 1, allow_nan=False), label="x2")
        for _ in range(int(np.prod(cat.shape(vars2))))
    ]
    f1, f2 = cat.table(vars1, vals1), cat.table(vars2, vals2)
    prod, added = product(f1, f2), add_tables(f1, f2)
    union = sorted(set(vars1) | set(vars2))
    for combo in itertools.product(*(range(cat.size(v)) for v in union)):
        assignment = dict(zip(union, combo))
        a = f1.lookup({v: assignment[v] for v in vars1})
        b = f2.lookup({v: assignment[v] for v in vars2})
        assert prod.lookup(assignment) == pytest.approx(a * b, abs=1e-9)
        assert added.lookup(assignment) == pytest.approx(a + b, abs=1e-9)
    # non-negativity is preserved
    assert (prod.array >= 0).all() and (added.array >= 0).all()


# The fast paths of product and add_tables (equal variable lists, a scalar
# operand) against the general path: the union of the variable lists and
# both operands broadcast over it.


def _general_path(op, f1, f2):
    out_vars = tables._union_vars(f1, f2)
    return out_vars, op(
        tables._broadcast_to(f1, out_vars), tables._broadcast_to(f2, out_vars)
    )


@st.composite
def _operand_pairs(draw):
    doms = draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    perm = draw(st.permutations(range(len(doms))))
    scopes = draw(
        st.sampled_from(["equal", "scalar-left", "scalar-right", "shared", "disjoint"])
    )
    cut = draw(st.integers(1, len(perm) - 1))
    vars1 = tuple(perm[:cut])
    if scopes == "equal":
        vars2 = vars1
    elif scopes == "scalar-left":
        vars1, vars2 = (), vars1
    elif scopes == "scalar-right":
        vars2 = ()
    elif scopes == "disjoint":
        vars2 = tuple(perm[cut:])
    else:
        keep = draw(st.integers(1, len(vars1)))
        extra = draw(st.integers(0, len(perm) - cut))
        shared = vars1[:keep] + tuple(perm[cut : cut + extra])
        vars2 = tuple(draw(st.permutations(shared)))
    values = st.floats(0, 1e3, allow_nan=False)

    def draw_table(vars):
        shape = tuple(doms[v] for v in vars)
        n = math.prod(shape)
        flat = draw(st.lists(values, min_size=n, max_size=n))
        return Table(vars, np.array(flat).reshape(shape))

    return draw_table(vars1), draw_table(vars2)


@settings(max_examples=150, deadline=None)
@given(pair=_operand_pairs())
def test_product_and_add_equal_the_general_path_bitwise(pair):
    f1, f2 = pair
    for fn, op, field in (
        (product, np.multiply, "multiplications"),
        (add_tables, np.add, "additions"),
    ):
        counters = CostCounters()
        result = fn(f1, f2, counters)
        out_vars, expected = _general_path(op, f1, f2)
        assert result.vars == out_vars
        assert result.array.dtype == np.float64
        assert np.array_equal(result.array, expected)
        assert getattr(counters, field) == expected.size == result.size


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sum_out_distributes_over_product(data):
    sizes = data.draw(st.lists(st.integers(2, 3), min_size=3, max_size=4))
    cat = DomainCatalog(
        [(f"v{i}", tuple(f"k{j}" for j in range(s))) for i, s in enumerate(sizes)]
    )
    ids = list(range(len(sizes)))
    y = data.draw(st.sampled_from(ids))
    others = [v for v in ids if v != y]
    k1 = data.draw(st.integers(1, len(others)))
    vars1 = tuple(data.draw(st.permutations(others))[:k1])
    vars2 = tuple(
        data.draw(st.permutations(ids).filter(lambda p: True))[
            : data.draw(st.integers(1, len(ids)))
        ]
    )
    if y not in vars2:
        vars2 = vars2 + (y,)
    vals1 = [
        data.draw(st.floats(0, 1, allow_nan=False))
        for _ in range(int(np.prod(cat.shape(vars1))))
    ]
    vals2 = [
        data.draw(st.floats(0, 1, allow_nan=False))
        for _ in range(int(np.prod(cat.shape(vars2))))
    ]
    f1, f2 = cat.table(vars1, vals1), cat.table(vars2, vals2)
    lhs = sum_out(product(f1, f2), y)
    rhs = product(f1, sum_out(f2, y))
    union = sorted(set(vars1) | set(vars2) - {y})
    for combo in itertools.product(*(range(cat.size(v)) for v in union)):
        assignment = dict(zip(union, combo))
        assert lhs.lookup(assignment) == pytest.approx(
            rhs.lookup(assignment), abs=1e-9
        )


# The fused kernel against the unfused product and sum.  A bucket is the
# domain sizes of its variables and the variable lists of its tables; the
# eliminated variable is 0 and occurs in at least one table.  A threshold of
# 0 sends every bucket through the pairwise fold, whose last pair einsum
# hands to batched matmul; at the default, the drawn buckets are contracted
# whole in one plain einsum call, which builds no pairwise product, yet must
# count and record each one as the fold does.


@st.composite
def _buckets(draw):
    doms = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    scope = st.lists(st.integers(0, len(doms) - 1), unique=True, max_size=len(doms))
    scopes = draw(st.lists(scope.map(tuple), min_size=1, max_size=4))
    if not any(0 in s for s in scopes):
        scopes[0] = (*scopes[0], 0)
    return doms, scopes


@settings(max_examples=300, deadline=None)
@given(
    bucket=_buckets(),
    threshold=st.sampled_from([0, tables.OPTIMIZE_ABOVE]),
    seed=st.integers(0, 2**32 - 1),
)
@example(bucket=([2, 3, 2], [(1, 0, 2), (2, 1, 0)]), threshold=0, seed=0)  # all shared
@example(bucket=([3, 2, 2], [(0, 1), (2, 0)]), threshold=0, seed=0)  # only y shared
@example(bucket=([2, 3, 2], [(0, 1), (2,)]), threshold=0, seed=0)  # disjoint, y one-sided
@example(  # y in the larger only
    bucket=([2, 3], [(1,), (1, 0)]), threshold=tables.OPTIMIZE_ABOVE, seed=0
)
@example(bucket=([3], [(0,), (0,)]), threshold=0, seed=0)  # scalar result
@example(bucket=([2, 1, 3], [(0, 1), (1, 2), (2, 0)]), threshold=0, seed=0)  # three tables
@example(  # above the default threshold, with batch variables 1 and 2
    bucket=([4, 8, 8, 8, 8], [(1, 2, 0, 3), (4, 0, 2, 1)]),
    threshold=tables.OPTIMIZE_ABOVE,
    seed=0,
)
@example(  # three tables, last product of exactly OPTIMIZE_ABOVE entries: one call
    bucket=([2] * 13, [(0, 1, 2, 3, 4), (4, 5, 6, 7, 8), (8, 9, 10, 11, 12, 0)]),
    threshold=tables.OPTIMIZE_ABOVE,
    seed=0,
)
@example(  # three tables, last product of twice that: the fold
    bucket=([2] * 14, [(0, 1, 2, 3, 4), (4, 5, 6, 7, 8), (8, 9, 10, 11, 12, 13, 0)]),
    threshold=tables.OPTIMIZE_ABOVE,
    seed=0,
)
@example(  # as many tables as one einsum call takes on numpy 1.x: one call
    bucket=([2, 3], [(0,), (1, 0)] * 15 + [(0,)]), threshold=tables.OPTIMIZE_ABOVE, seed=0
)
@example(  # more tables than that: the fold
    bucket=([2, 3], [(0,), (1, 0)] * 20), threshold=tables.OPTIMIZE_ABOVE, seed=0
)
def test_fused_product_sum_matches_product_then_sum(bucket, threshold, seed):
    doms, scopes = bucket
    rng = np.random.default_rng(seed)
    bucket_tables = [Table(s, rng.random([doms[v] for v in s])) for s in scopes]
    fused, unfused = CostCounters(), CostCounters()
    with mock.patch.object(tables, "OPTIMIZE_ABOVE", threshold):
        got, created = multiply_all_sum_out(bucket_tables, 0, fused)
    prod, prod_created = multiply_all(bucket_tables, unfused)
    want = sum_out(prod, 0, unfused)
    assert got.vars == want.vars
    np.testing.assert_allclose(got.array, want.array, rtol=0, atol=1e-12)
    assert fused.multiplications == unfused.multiplications
    assert fused.additions == unfused.additions
    # the full product is never created: the result takes its place
    assert created == prod_created[:-1] + [want.size]


def test_fused_product_sum_never_holds_the_full_product():
    # Binary variables; y = 21.  The product is over 22 variables (2^22
    # entries, 32 MiB) and the result over 21 (16 MiB).  Building the
    # product first peaks near 3x the result's bytes.
    y = 21
    rng = np.random.default_rng(0)
    a = Table((y, *range(0, 11)), rng.random((2,) * 12))
    b = Table((*range(5, 21), y), rng.random((2,) * 17))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result, _ = multiply_all_sum_out([a, b], y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.size == 1 << 21
    assert peak < 1.5 * result.array.nbytes
