"""Tabular elimination engine, and what the order of a product's pairwise
multiplications costs."""

import tracemalloc

import numpy as np
import pytest

from ctxve import (
    Confactor,
    Context,
    ContextualBeliefNetwork,
    CostCounters,
    DomainCatalog,
    GenConfig,
    InvariantError,
    SplitMix64,
    Table,
    ZeroEvidenceError,
    enum_query,
    from_skeleton,
    from_tabular_cpt,
    generate_biased_cbn,
    generate_random_cbn,
    product,
    set_table,
    ve_query,
)
from ctxve.engine_ve import TabularVE
from ctxve.orders import relevant_variables
from ctxve.posterior import cancels, normalize_posterior
from ctxve.tables import multiply_all, reorder

from conftest import (
    brute_posterior,
    contextual_mixed_network,
    ctx,
    elimination_for,
    random_evidence,
)


def chain_factors():
    """One 1000-valued root with three binary descendants hanging off the
    middle variable."""
    cat = DomainCatalog(
        [
            ("a", tuple(f"v{i}" for i in range(1000))),
            ("b", ("true", "false")),
            ("c", ("true", "false")),
            ("d", ("true", "false")),
        ]
    )
    rng = SplitMix64(11)
    a, b, c, d = range(4)

    def cpt(vars):
        shape = cat.shape(vars)
        arr = np.array([rng.uniform() for _ in range(int(np.prod(shape)))]).reshape(shape)
        return Table(vars, arr / arr.sum(axis=len(vars) - 1, keepdims=True))

    return cat, cpt((a, b)), cpt((b, c)), cpt((b, d))


class TestMultiplyFactors:
    """Which intermediates a product saves decides what it costs; counted by
    ``product`` itself, the one pairwise kernel."""

    def test_left_fold_saves_intermediates(self):
        _, p_ba, p_cb, p_db = chain_factors()
        counters = CostCounters()
        result = product(product(p_ba, p_cb, counters), p_db, counters)
        assert counters.multiplications == 12000
        assert result.size == 8000

    def test_right_fold_is_cheaper_here(self):
        # and it is the order the bucket fold takes
        _, p_ba, p_cb, p_db = chain_factors()
        counters = CostCounters()
        result = product(product(p_db, p_cb, counters), p_ba, counters)
        assert counters.multiplications == 8008
        assert result.size == 8000
        counters = CostCounters()
        multiply_all([p_ba, p_cb, p_db], counters)
        assert counters.multiplications == 8008

    def test_recompute_everything(self):
        # saving nothing recomputes each of the two pairwise products at
        # every entry of the final one
        _, p_ba, p_cb, p_db = chain_factors()
        result = product(product(p_ba, p_cb), p_db)
        assert (3 - 1) * result.size == 16000

    def test_single_factor_free(self):
        _, p_ba, _, _ = chain_factors()
        counters = CostCounters()
        result, created = multiply_all([p_ba], counters)
        assert result is p_ba and created == []
        assert counters.multiplications == 0

    def test_policies_agree_on_values(self):
        _, p_ba, p_cb, p_db = chain_factors()
        left = product(product(p_ba, p_cb), p_db)
        right = product(product(p_db, p_cb), p_ba)
        folded, _ = multiply_all([p_ba, p_cb, p_db])
        for other in (right, folded):
            np.testing.assert_allclose(
                left.array, reorder(other, left.vars).array, atol=1e-12
            )


class TestCancels:
    def test_only_variable_free_tables_cancel(self):
        assert not cancels(Table((0,), np.array([0.0, 1.0])))
        assert cancels(Table.scalar(0.25))

    def test_zero_constant_raises(self):
        with pytest.raises(ZeroEvidenceError, match="probability zero"):
            cancels(Table.scalar(0.0))


class TestAnswerCheck:
    """An answer over other variables than the query's is an engine fault,
    caught by the one answer step every engine and ``enum_query`` share."""

    def test_query_rejects_an_answer_over_a_non_query_variable(self, tree_net):
        a, e = tree_net.catalog.index("a"), tree_net.catalog.index("e")

        class OffQueryVE(TabularVE):
            def finish(self):
                return Table((a,), np.array([0.3, 0.7]))

        want = rf"answer is over \[{a}\], not the query \[{e}\]"
        with pytest.raises(InvariantError, match=want):
            OffQueryVE(tree_net).query([e])

    def test_normalize_posterior_rejects_a_table_over_other_variables(self, tree_net):
        cat = tree_net.catalog
        a, e = cat.index("a"), cat.index("e")
        want = rf"answer is over \[{a}, {e}\], not the query \[{e}\]"
        with pytest.raises(InvariantError, match=want):
            normalize_posterior(Table((e, a), np.ones((2, 2))), [e], cat)


class TestQueries:
    def test_single_variable_prior(self):
        cat = DomainCatalog([("x", ("true", "false"))])
        from ctxve import Confactor, ContextualBeliefNetwork

        net = ContextualBeliefNetwork(
            cat, [[Confactor(Context(), cat.table((0,), [0.8, 0.2]))]]
        )
        posterior, _ = ve_query(net, [0])
        np.testing.assert_allclose(posterior.probabilities, [0.8, 0.2])

    def test_matches_enumeration_on_tree_network(self, tree_net):
        cat = tree_net.catalog
        e = cat.index("e")
        posterior, _ = ve_query(net=tree_net, query_vars=[e])
        want = brute_posterior(tree_net, [e])
        np.testing.assert_allclose(posterior.probabilities, want, atol=1e-9)

    def test_matches_enumeration_with_evidence(self, tree_net):
        cat = tree_net.catalog
        e = cat.index("e")
        obs = ctx(cat, "d=false,z=false")
        posterior, _ = ve_query(tree_net, [e], obs)
        want = brute_posterior(tree_net, [e], obs)
        np.testing.assert_allclose(posterior.probabilities, want, atol=1e-9)

    def test_impossible_evidence_raises(self):
        cat = DomainCatalog([("x", ("true", "false")), ("y", ("true", "false"))])
        from ctxve import Confactor, ContextualBeliefNetwork

        net = ContextualBeliefNetwork(
            cat,
            [
                [Confactor(Context(), cat.table((0,), [1.0, 0.0]))],
                [Confactor(Context(), cat.table((0, 1), [0.3, 0.7, 0.5, 0.5]))],
            ],
        )
        with pytest.raises(ZeroEvidenceError, match="probability zero"):
            ve_query(net, [1], Context([(0, 1)]))

    def test_order_independence_on_random_networks(self):
        rng = SplitMix64(99)
        for seed in range(6):
            net = generate_random_cbn(GenConfig(n=8, s=4, p=0.4, seed=seed))
            query = rng.below(8)
            reference = None
            for _ in range(5):
                order = [v for v in range(8) if v != query]
                for i in range(len(order) - 1, 0, -1):
                    j = rng.below(i + 1)
                    order[i], order[j] = order[j], order[i]
                posterior, _ = ve_query(net, [query], order=order)
                if reference is None:
                    reference = posterior
                else:
                    assert reference.max_abs_diff(posterior) < 1e-9

    def test_multivariable_query(self, tree_net):
        cat = tree_net.catalog
        qs = [cat.index("e"), cat.index("b")]
        posterior, _ = ve_query(tree_net, qs)
        want = brute_posterior(tree_net, qs)
        np.testing.assert_allclose(posterior.probabilities, want, atol=1e-9)


class TestInstrumentation:
    def test_pairwise_product_counts_result_entries(self, tree_net):
        cat = tree_net.catalog
        engine = TabularVE(tree_net)
        b = cat.index("b")
        engine.order = [b]
        engine.begin()
        before = engine.counters.multiplications
        engine.eliminate(b)
        # dense e-factor (32) times the b-conditional (8): the fused
        # product spans a,b,c,d,e,y,z
        assert engine.counters.multiplications - before == 128
        assert elimination_for(engine.counters, b).created == (64,)

    def test_evidence_monotonicity(self, tree_net):
        cat = tree_net.catalog
        e = cat.index("e")
        order = [cat.index(n) for n in ["b", "d", "c", "a", "y", "z"]]
        _, bare = ve_query(tree_net, [e], order=order)
        rng = SplitMix64(5)
        for trial in range(10):
            vars = [v for v in range(7) if v != e]
            picked = sorted(
                {vars[rng.below(len(vars))] for _ in range(1 + rng.below(3))}
            )
            obs = Context([(v, rng.below(2)) for v in picked])
            sub_order = [v for v in order if v not in obs]
            _, counters = ve_query(tree_net, [e], obs, order=sub_order)
            assert counters.max_table_size <= bare.max_table_size


class ExpandThenSliceVE(TabularVE):
    """Reference: every relevant family expanded whole, then sliced at the
    evidence, as ``begin`` did before it tiled the evidence's block."""

    def begin(self, obs=None):
        obs = obs or Context()
        items = []
        for x in self.relevant:
            factor = set_table(self.net.tabular_factor(x), obs)
            if not cancels(factor):
                items.append(factor)
        self.items = items


def twin(net):
    """The same families in a network with its own, empty expansion cache."""
    return ContextualBeliefNetwork(net.catalog, net.families)


def assert_same_factor(got, want):
    assert got.vars == want.vars
    assert got.array.shape == want.array.shape
    assert np.ascontiguousarray(got.array).tobytes() == np.ascontiguousarray(want.array).tobytes()


def switch_network():
    """a and b binary roots; x's family switches on a: a=0 -> T(x) and
    a=1 -> T(b, x)."""
    cat = DomainCatalog([(name, ("0", "1")) for name in ("a", "b", "x")])
    a, b, x = range(3)
    families = [
        from_tabular_cpt(cat, a, [], Table((a,), np.array([0.3, 0.7]))),
        from_tabular_cpt(cat, b, [], Table((b,), np.array([0.6, 0.4]))),
        [
            Confactor(Context([(a, 0)]), Table((x,), np.array([0.2, 0.8]))),
            Confactor(Context([(a, 1)]), Table((b, x), np.array([[0.9, 0.1], [0.5, 0.5]]))),
        ],
    ]
    return ContextualBeliefNetwork(cat, families)


def wide_family_network():
    """Binary p0..p20, x and e.  x's family switches on p0: p0=0 -> T(p1..p10,
    x) and p0=1 -> T(p11..p20, x), 2^11 entries each, but its dense table
    spans all 22 variables: 2^22 entries, 32 MiB.  e is x's child."""
    names = [*(f"p{i}" for i in range(21)), "x", "e"]
    cat = DomainCatalog([(name, ("0", "1")) for name in names])
    rng = SplitMix64(3)
    x, e = cat.index("x"), cat.index("e")

    def cpt(vars):
        arr = np.array([0.05 + rng.uniform() for _ in range(2 ** len(vars))])
        arr = arr.reshape((2,) * len(vars))
        return Table(vars, arr / arr.sum(axis=-1, keepdims=True))

    families = [from_tabular_cpt(cat, p, [], cpt((p,))) for p in range(21)]
    pairs = [(Context([(0, 0)]), list(range(1, 11))), (Context([(0, 1)]), list(range(11, 21)))]
    families.append(from_skeleton(cat, x, [(c, cpt((*vs, x))) for c, vs in pairs]))
    families.append(from_tabular_cpt(cat, e, [x], cpt((x, e))))
    return ContextualBeliefNetwork(cat, families)


class TestEvidenceBlock:
    """``begin`` makes each family dense under the evidence without
    expanding it whole: the same factors, counters and answers as slicing
    the whole expansion."""

    def networks(self):
        rng = SplitMix64(20240601)
        for seed in range(12):
            n, s = 4 + rng.below(7), rng.below(7)
            p = 0.2 if rng.below(2) == 0 else 0.5
            yield generate_random_cbn(GenConfig(n=n, s=s, p=p, seed=seed))
            yield generate_biased_cbn(GenConfig(n=10, s=8, p=0.3, seed=seed))
            yield generate_random_cbn(GenConfig(n=10, s=6, p=0.0, seed=seed))
            yield generate_biased_cbn(GenConfig(n=10, s=8, p=0.0, seed=seed))
            yield contextual_mixed_network(seed)

    def test_factors_counters_and_answers_match_slicing_the_whole_expansion(self):
        rng = SplitMix64(77)
        routes = {"block": 0, "cached": 0}
        for net in self.networks():
            reference = twin(net)
            for _ in range(4):
                query = rng.below(net.n_vars())
                obs = random_evidence(net, rng, query)
                engine, eager = TabularVE(net), ExpandThenSliceVE(reference)
                got = engine.query([query], obs)
                expected = eager.query([query], obs)
                assert engine.counters == eager.counters
                assert got.max_abs_diff(expected) < 1e-12
                for x in relevant_variables(net, [query], obs):
                    assert_same_factor(
                        net.factor_under(x, obs), set_table(reference.tabular_factor(x), obs)
                    )
                    fam = net.families[x]
                    if not obs.isdisjoint(net.scopes[x]) and (len(fam) > 1 or fam[0].body):
                        routes["cached" if x in net._tabular_cache else "block"] += 1
        assert routes["block"] > 100 and routes["cached"] > 10

    def test_observed_variable_only_in_bodies(self):
        net = switch_network()
        a, b, x = range(3)
        for val in (0, 1):
            obs = Context([(a, val)])
            got = net.factor_under(x, obs)
            assert got.vars == (b, x)
            assert_same_factor(got, set_table(twin(net).tabular_factor(x), obs))
        assert net._tabular_cache == {}

    def test_constant_over_another_variable_is_kept(self):
        # a=0 leaves x's piece T(x); observing x too makes it a constant,
        # but the factor still spans b and must not cancel.
        net = switch_network()
        a, b, x = range(3)
        obs = Context([(a, 0), (x, 1)])
        engine = TabularVE(net)
        engine.begin(obs)
        # a's prior cancels; b's prior and x's factor are left, in that order
        assert [f.vars for f in engine.items] == [(b,), (b,)]
        factor = engine.items[-1]
        np.testing.assert_array_equal(factor.array, [0.8, 0.8])
        assert_same_factor(factor, set_table(twin(net).tabular_factor(x), obs))
        posterior = TabularVE(net).query([b], obs)
        assert posterior.max_abs_diff(enum_query(net, [b], obs)) < 1e-12

    def test_begin_tiles_only_the_evidence_block(self):
        net = wide_family_network()
        x = net.catalog.index("x")
        whole = 8 * (1 << 22)
        obs = Context([(0, 1), (15, 0)])
        engine = TabularVE(net)
        tracemalloc.start()
        try:
            engine.begin(obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < whole / 2
        assert x not in net._tabular_cache
        (factor,) = [f for f in engine.items if len(f.vars) > 2]
        assert factor.size == 1 << 20
        assert_same_factor(factor, set_table(twin(net).tabular_factor(x), obs))

    def test_untouched_family_is_expanded_whole(self):
        net = wide_family_network()
        reference = twin(net)
        x, e = net.catalog.index("x"), net.catalog.index("e")
        for obs in (Context([(e, 1)]), Context([(0, 1), (15, 0), (e, 1)])):
            engine, eager = TabularVE(net), ExpandThenSliceVE(reference)
            got, expected = engine.query([5], obs), eager.query([5], obs)
            assert x in net._tabular_cache and net._tabular_cache[x].size == 1 << 22
            assert engine.counters == eager.counters
            assert got.max_abs_diff(expected) < 1e-12
