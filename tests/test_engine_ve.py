"""Tabular elimination engine and multiplication-order policies."""

import numpy as np
import pytest

from ctxve import (
    Context,
    DomainCatalog,
    GenConfig,
    SplitMix64,
    Table,
    ZeroEvidenceError,
    generate_random_cbn,
    multiply_factors,
    ve_query,
)
from ctxve.engine_ve import TabularVE
from ctxve.posterior import cancels

from conftest import brute_posterior, ctx


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
    def test_left_fold_saves_intermediates(self):
        _, p_ba, p_cb, p_db = chain_factors()
        result, count = multiply_factors([p_ba, p_cb, p_db], policy="left")
        assert count == 12000
        assert result.size == 8000

    def test_right_fold_is_cheaper_here(self):
        _, p_ba, p_cb, p_db = chain_factors()
        result, count = multiply_factors([p_ba, p_cb, p_db], policy="right")
        assert count == 8008
        assert result.size == 8000

    def test_recompute_everything(self):
        _, p_ba, p_cb, p_db = chain_factors()
        _, count = multiply_factors([p_ba, p_cb, p_db], policy="recompute")
        assert count == 16000

    def test_single_factor_free(self):
        _, p_ba, _, _ = chain_factors()
        result, count = multiply_factors([p_ba])
        assert count == 0 and result is p_ba

    def test_policies_agree_on_values(self):
        _, p_ba, p_cb, p_db = chain_factors()
        left, _ = multiply_factors([p_ba, p_cb, p_db], policy="left")
        right, _ = multiply_factors([p_ba, p_cb, p_db], policy="right")
        recompute, _ = multiply_factors([p_ba, p_cb, p_db], policy="recompute")
        for other in (right, recompute):
            assert set(other.vars) == set(left.vars)
            perm_axes = [other.vars.index(v) for v in left.vars]
            np.testing.assert_allclose(
                left.array, np.transpose(other.array, perm_axes), atol=1e-12
            )


class TestCancels:
    def test_only_variable_free_tables_cancel(self):
        assert not cancels(Table((0,), np.array([0.0, 1.0])))
        assert cancels(Table.scalar(0.25))

    def test_zero_constant_raises(self):
        with pytest.raises(ZeroEvidenceError, match="probability zero"):
            cancels(Table.scalar(0.0))


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
        engine.begin()
        b = cat.index("b")
        before = engine.counters.multiplications
        engine.eliminate(b)
        # dense e-factor (32) times the b-conditional (8): the fused
        # product spans a,b,c,d,e,y,z
        assert engine.counters.multiplications - before == 128
        assert engine.counters.elimination_for(b).created == (64,)

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
