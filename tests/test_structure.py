"""CPT compression and randomized network generation."""

import itertools

import numpy as np
import pytest

from ctxve import (
    CompressionConfig,
    Context,
    DomainCatalog,
    GenConfig,
    SplitMix64,
    Table,
    compress_family,
    compress_network,
    generate_biased_cbn,
    generate_random_cbn,
    joint_table,
    redundant_variables,
)
from ctxve.network import to_document
from ctxve.structure import _collapse_redundant
from ctxve.tables import set_table

from conftest import ctx, table, tree_catalog, tree_network


def dense_e(cat):
    net = tree_network()
    return net.tabular_factor(cat.index("e"))


class TestRedundancy:
    def test_constant_slab_is_redundant(self):
        cat = tree_catalog()
        dense = dense_e(cat)
        sub = set_table(dense, ctx(cat, "a=true,b=true"))
        got = redundant_variables(sub, cat.index("e"))
        assert got == {cat.index("c"), cat.index("d")}

    def test_no_redundancy_in_full_table(self):
        cat = tree_catalog()
        dense = dense_e(cat)
        assert redundant_variables(dense, cat.index("e")) == set()

    def test_boundary_difference_is_not_redundant(self):
        cat = DomainCatalog([("p", ("0", "1")), ("x", ("0", "1"))])
        t = cat.table((0, 1), [0.50, 0.50, 0.55, 0.45])
        # differences of exactly the threshold do not qualify
        assert redundant_variables(t, 1, CompressionConfig(threshold=0.05)) == set()
        assert redundant_variables(t, 1, CompressionConfig(threshold=0.051)) == {0}

    def test_block_collapse_respects_joint_spread(self):
        # both parents look individually redundant but their joint block
        # spans more than the threshold: only one may be collapsed
        cat = DomainCatalog([(n, ("0", "1")) for n in ["u", "v", "x"]])
        arr = np.zeros((2, 2, 2))
        arr[0, 0], arr[0, 1], arr[1, 0], arr[1, 1] = 0.10, 0.14, 0.14, 0.18
        arr[:, :, 1] = 1 - arr[:, :, 0]
        t = Table((0, 1, 2), arr)
        cfg = CompressionConfig(threshold=0.05)
        assert redundant_variables(t, 2, cfg) == {0, 1}
        collapsed = _collapse_redundant(t, 2, cfg)
        assert len(collapsed.vars) == 2  # child plus one surviving parent


def tree_search_minimum(cat, x, node, cfg):
    """Smallest total leaf size over every possible split tree, with the
    same collapse rule at each node; brute-force oracle for the greedy."""
    node = _collapse_redundant(node, x, cfg)
    best = node.size
    for v in node.vars:
        if v == x:
            continue
        total = 0
        for val in range(cat.size(v)):
            total += tree_search_minimum(
                cat, x, set_table(node, Context([(v, val)])), cfg
            )
        best = min(best, total)
    return best


class TestCompression:
    def test_tree_structured_table_compresses_to_four_leaves(self):
        cat = tree_catalog()
        e = cat.index("e")
        dense = dense_e(cat)
        fam, residual = compress_family(
            cat, e, [v for v in dense.vars if v != e], dense
        )
        bodies = [r.body for r in fam]
        assert bodies == [
            ctx(cat, "a=true"),
            ctx(cat, "a=false,c=true"),
            ctx(cat, "a=false,c=false,d=true"),
            ctx(cat, "a=false,c=false,d=false"),
        ]
        assert sum(r.size for r in fam) == 12
        assert residual == pytest.approx(0.0, abs=1e-12)
        # greedy reaches the global optimum here
        assert tree_search_minimum(cat, e, dense, CompressionConfig()) == 12
        # and the expansion reproduces the original exactly: nothing was
        # merged across a gap of 0.05 or more
        from ctxve import ContextualBeliefNetwork

        net = tree_network()
        rebuilt = ContextualBeliefNetwork(
            cat,
            [fam if x == e else list(f) for x, f in enumerate(net.families)],
        )
        np.testing.assert_allclose(
            rebuilt.tabular_factor(e).array, dense.array, atol=1e-12
        )

    def test_uniform_gaps_below_threshold_stay_dense(self):
        # a synthetic conditional whose neighbouring entries sit 0.04 apart:
        # threshold 0.03 finds nothing to merge
        cat = DomainCatalog(
            [("p", ("0", "1")), ("q", ("0", "1")), ("x", ("0", "1"))]
        )
        base = np.array([0.30, 0.34, 0.38, 0.42]).reshape(2, 2)
        arr = np.stack([base, 1 - base], axis=-1)
        t = Table((0, 1, 2), arr)
        fam, _ = compress_family(
            cat, 2, [0, 1], t, CompressionConfig(threshold=0.03)
        )
        assert len(fam) == 1
        assert fam[0].body == Context()
        assert fam[0].table.size == t.size
        # the looser default threshold does compress it
        fam2, _ = compress_family(cat, 2, [0, 1], t, CompressionConfig(threshold=0.05))
        assert sum(r.size for r in fam2) < t.size

    def test_constant_table_collapses_to_prior(self):
        cat = DomainCatalog(
            [("p", ("0", "1")), ("q", ("0", "1")), ("x", ("0", "1"))]
        )
        arr = np.full((2, 2, 2), 0.5)
        fam, _ = compress_family(cat, 2, [0, 1], Table((0, 1, 2), arr))
        assert len(fam) == 1
        assert fam[0].body == Context()
        assert fam[0].table.vars == (2,)

    def test_expansion_error_bounded_by_half_threshold(self):
        rng = SplitMix64(555)
        cfg = CompressionConfig(threshold=0.05)
        cat = DomainCatalog([(f"p{i}", ("0", "1")) for i in range(3)] + [("x", ("0", "1"))])
        x = 3
        for trial in range(40):
            raw = np.array([rng.uniform() for _ in range(8)]).reshape(2, 2, 2)
            arr = np.stack([raw, 1 - raw], axis=-1)
            t = Table((0, 1, 2, 3), arr)
            fam, residual = compress_family(cat, x, [0, 1, 2], t, cfg)
            assert residual <= cfg.threshold / 2 + 1e-12
            for combo in itertools.product((0, 1), repeat=3):
                full = Context(list(enumerate(combo)))
                hits = [
                    r
                    for r in fam
                    if all(full.get(v) == val for v, val in r.body.items())
                ]
                assert len(hits) == 1
                r = hits[0]
                # compare against the midpoint value before renormalization:
                # rescale the leaf back by its own residual is unavailable,
                # so check the normalized leaf stays near the original row
                got = r.table.lookup(
                    {v: (combo[v] if v != x else 0) for v in r.table.vars}
                )
                want = arr[combo][0]
                assert abs(got - want) <= cfg.threshold / 2 + residual + 1e-9

    def test_network_compression_round_trip(self):
        net = tree_network()
        cat = net.catalog
        from ctxve import ContextualBeliefNetwork, from_tabular_cpt

        families = []
        for x in range(net.n_vars()):
            dense = net.tabular_factor(x)
            families.append(
                from_tabular_cpt(cat, x, [v for v in dense.vars if v != x], dense)
            )
        tabular = ContextualBeliefNetwork(cat, families)
        compressed, report = compress_network(tabular)
        assert compressed.validate() == []
        assert compressed.total_confactor_size() < tabular.total_confactor_size()
        by_var = {row["variable"]: row for row in report}
        assert by_var["e"]["compressed_size"] == 12
        assert by_var["e"]["confactors"] == 4
        # identical distributions throughout (the e-table merges only equal
        # entries, and every other family is already minimal)
        for x in range(net.n_vars()):
            np.testing.assert_allclose(
                compressed.tabular_factor(x).array,
                tabular.tabular_factor(x).array,
                atol=0.051,
            )


class TestGenerators:
    def test_confactor_count_and_validity(self):
        for seed in (0, 1, 7):
            cfg = GenConfig(n=8, s=3, p=0.2, seed=seed)
            net = generate_random_cbn(cfg)
            assert len(net.all_confactors()) == 8 + 3
            assert net.validate() == []

    def test_determinism(self):
        cfg = GenConfig(n=8, s=3, p=0.2, seed=42)
        doc1 = to_document(generate_random_cbn(cfg))
        doc2 = to_document(generate_random_cbn(cfg))
        assert doc1 == doc2

    def test_joint_normalizes(self):
        net = generate_random_cbn(GenConfig(n=9, s=5, p=0.3, seed=3))
        assert float(joint_table(net).array.sum()) == pytest.approx(1.0, abs=1e-6)

    def test_context_variable_budget(self):
        for seed in range(10):
            cfg = GenConfig(n=10, s=6, p=0.2, seed=seed)
            net = generate_random_cbn(cfg)
            used = {
                v for r in net.all_confactors() for v in r.body.vars()
            }
            assert len(used) <= cfg.s
            for x in range(net.n_vars()):
                for r in net.families[x]:
                    assert all(v < x for v in r.body.vars())

    def test_single_split_runs_coincide(self):
        for seed in range(20):
            plain = generate_random_cbn(GenConfig(n=6, s=1, p=0.0, seed=seed))
            biased = generate_biased_cbn(GenConfig(n=6, s=1, p=0.0, seed=seed))
            assert to_document(plain) == to_document(biased)

    def test_bias_reduces_distinct_context_variables(self):
        def distinct_context_vars(net):
            return len({v for r in net.all_confactors() for v in r.body.vars()})

        plain_total = 0
        biased_total = 0
        for seed in range(100):
            cfg = GenConfig(n=12, s=8, p=0.2, seed=seed)
            plain_total += distinct_context_vars(generate_random_cbn(cfg))
            biased_total += distinct_context_vars(generate_biased_cbn(cfg))
        assert biased_total < plain_total

    def test_biased_networks_validate(self):
        for seed in range(5):
            net = generate_biased_cbn(GenConfig(n=10, s=5, p=0.25, seed=seed))
            assert net.validate() == []

    def test_infeasible_split_budget_raises(self):
        with pytest.raises(ValueError, match="split budget"):
            generate_random_cbn(GenConfig(n=1, s=1, p=0.0, seed=0))
