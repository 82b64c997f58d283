"""Tree-based elimination: grouped factors on the tabular schedule."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from ctxve import (
    Confactor,
    Context,
    ContextualBeliefNetwork,
    DomainCatalog,
    GenConfig,
    GroupedFactor,
    SplitMix64,
    Table,
    from_skeleton,
    generate_biased_cbn,
    generate_random_cbn,
    min_size_order,
    tve_multiply,
    tve_query,
    ve_query,
)
from ctxve import engine_tve
from ctxve.bench import check_row
from ctxve.confactor import EMPTY, Member
from ctxve.engine_cve import sum_out_members
from ctxve.engine_tve import TreeVE
from ctxve.engine_ve import TabularVE
from ctxve.posterior import drop_constants

from conftest import (
    T,
    brute_posterior,
    contextual_mixed_network,
    ctx,
    elimination_for,
    find_confactor,
    lookup,
    random_evidence,
    table,
)


class TestTveMultiply:
    def test_single_member_groups_multiply_like_tables(self, tree_net):
        cat = tree_net.catalog
        g1 = GroupedFactor(
            [Confactor(Context(), table(cat, ["b", "e"], [0.55, 0.45, 0.3, 0.7]))],
            cat,
        )
        g2 = GroupedFactor(
            [Confactor(Context(), table(cat, ["b", "z"], [0.77, 0.17, 0.23, 0.83]))],
            cat,
        )
        out = tve_multiply(cat, g1, g2)
        assert len(out.members) == 1
        got = out.members[0].table
        assert lookup(
            got, {cat.index("b"): T, cat.index("e"): T, cat.index("z"): T}
        ) == pytest.approx(0.4235)

    def test_incompatible_members_vanish(self, tree_net):
        cat = tree_net.catalog
        g1 = GroupedFactor(
            [
                Confactor(ctx(cat, "a=true"), table(cat, ["e"], [0.3, 0.7])),
                Confactor(ctx(cat, "a=false"), table(cat, ["e"], [0.6, 0.4])),
            ],
            cat,
        )
        g2 = GroupedFactor(
            [
                Confactor(ctx(cat, "a=true"), table(cat, ["z"], [0.2, 0.8])),
                Confactor(ctx(cat, "a=false"), table(cat, ["z"], [0.9, 0.1])),
            ],
            cat,
        )
        out = tve_multiply(cat, g1, g2)
        assert len(out.members) == 2
        assert sum(r.size for r in out.members) <= out.size

    def test_expansion_matches_dense_product(self):
        # grouped multiply against the dense-product oracle on all
        # assignments of a four-variable binary space
        cat = DomainCatalog([(n, ("0", "1")) for n in "pqrs"])
        rng = SplitMix64(17)
        p, q, r, s = range(4)

        def rnd(n):
            return [rng.uniform() for _ in range(n)]

        g1 = GroupedFactor(
            [
                Confactor(Context([(p, 0)]), cat.table((q, r), rnd(4))),
                Confactor(Context([(p, 1)]), cat.table((q,), rnd(2))),
            ],
            cat,
        )
        g2 = GroupedFactor(
            [
                Confactor(Context([(q, 0)]), cat.table((p, s), rnd(4))),
                Confactor(Context([(q, 1)]), cat.table((s,), rnd(2))),
            ],
            cat,
        )
        out = tve_multiply(cat, g1, g2)

        def dense(group):
            arr = np.zeros((2, 2, 2, 2))
            for combo in itertools.product((0, 1), repeat=4):
                full = Context(list(enumerate(combo)))
                hits = [
                    m
                    for m in group.members
                    if all(full.get(v) == val for v, val in m.body.items())
                ]
                assert len(hits) == 1
                arr[combo] = lookup(
                    hits[0].table, {v: combo[v] for v in hits[0].table.vars}
                )
            return arr

        np.testing.assert_allclose(dense(out), dense(g1) * dense(g2), atol=1e-12)


class TestSchedule:
    def test_posterior_matches_the_other_engines(self, tree_net):
        cat = tree_net.catalog
        e = cat.index("e")
        order = [cat.index(n) for n in ["b", "d", "c", "a", "y", "z"]]
        answers = {
            "tve": tve_query(tree_net, [e], order=order),
            "ve": ve_query(tree_net, [e], order=order),
        }
        check_row(answers, "tree network query e")

    def test_tabular_network_counts_equal_ve(self, tree_net):
        cat = tree_net.catalog
        from ctxve import ContextualBeliefNetwork, from_tabular_cpt

        families = []
        for x in range(tree_net.n_vars()):
            dense = tree_net.tabular_factor(x)
            families.append(
                from_tabular_cpt(cat, x, [v for v in dense.vars if v != x], dense)
            )
        tabular = ContextualBeliefNetwork(cat, families)
        e = cat.index("e")
        order = [cat.index(n) for n in ["b", "d", "c", "a", "y", "z"]]
        tve_post, tve_counters = tve_query(tabular, [e], order=order)
        ve_post, ve_counters = ve_query(tabular, [e], order=order)
        assert tve_post.max_abs_diff(ve_post) < 1e-12
        assert tve_counters.multiplications == ve_counters.multiplications
        assert tve_counters.additions == ve_counters.additions

    def test_never_more_multiplications_than_ve_on_random_nets(self):
        rng = SplitMix64(4242)
        for seed in range(8):
            net = generate_random_cbn(GenConfig(n=8, s=5, p=0.3, seed=seed))
            query = rng.below(8)
            answers = {"tve": tve_query(net, [query]), "ve": ve_query(net, [query])}
            check_row(answers, f"net {seed} query {query}")

    def test_matches_enumeration_with_evidence(self, tree_net):
        cat = tree_net.catalog
        e = cat.index("e")
        obs = ctx(cat, "d=false,z=false")
        posterior, _ = tve_query(tree_net, [e], obs)
        np.testing.assert_allclose(
            posterior.probabilities, brute_posterior(tree_net, [e], obs), atol=1e-9
        )


class TestGroupSizes:
    def test_coupled_only_when_both_broken(self, hvac_net):
        cat = hvac_net.catalog
        ot = cat.index("ot")
        engine = TreeVE(hvac_net)
        engine.order = [ot]
        engine.begin()
        engine.eliminate(ot)
        rec = elimination_for(engine.counters, ot)
        assert rec.size == 72
        merged = [g for g in engine.items if cat.index("fh") in g.vars]
        assert len(merged) == 1
        group = merged[0]
        fully_coupled = find_confactor(group.members, cat, "fb=false,mb=false")
        assert set(fully_coupled.table.vars) == {
            cat.index(n) for n in ["fh", "ft", "mh", "mt", "s"]
        }
        assert fully_coupled.table.size == 32

    def test_dense_schedule_builds_the_full_table(self, hvac_net):
        cat = hvac_net.catalog
        ot = cat.index("ot")
        engine = TabularVE(hvac_net)
        engine.order = [ot]
        engine.begin()
        engine.eliminate(ot)
        rec = elimination_for(engine.counters, ot)
        assert max(rec.created) == 128
        assert engine.counters.max_table_size == 128


class EagerTreeVE(TreeVE):
    """Reference: the tree engine's step as it was before the last product
    of a bucket went lazy.  Every group of the bucket is multiplied in with
    ``tve_multiply`` and ``y`` is summed out of the merged group."""

    def step(self, y, bucket):
        merged = self._merge(bucket)
        members = sum_out_members(
            self.net.catalog,
            [Member(r.body, [r.table], r.for_vars, EMPTY) for r in merged.members],
            y,
            self.counters,
        )
        kept = drop_constants(members)
        sizes = [r.size for r in members]
        return ([GroupedFactor(kept, self.net.catalog)] if kept else []), sizes, sum(sizes)


class TestLazyLastProduct:
    """The fused step against the eager reference: the same counters, step
    by step, and the same answers."""

    def networks(self):
        for seed in range(12):
            yield generate_random_cbn(GenConfig(n=10, s=6, p=0.3, seed=seed))
            yield generate_biased_cbn(GenConfig(n=10, s=8, p=0.3, seed=seed))
            yield contextual_mixed_network(seed)

    def test_counters_and_answers_match_the_eager_reference(self):
        rng = SplitMix64(99)
        body_pairs = table_pairs = 0
        original = engine_tve.sum_out_members

        def spy(catalog, members, y, counters):
            nonlocal body_pairs, table_pairs
            for m in members:
                if len(m.tables) == 2:
                    if y in m.body:
                        body_pairs += 1
                    else:
                        table_pairs += 1
            return original(catalog, members, y, counters)

        for net in self.networks():
            for _ in range(3):
                query = rng.below(net.n_vars())
                obs = random_evidence(net, rng, query)
                order = min_size_order(net, [query], obs)
                eager = EagerTreeVE(net)
                expected = eager.query([query], obs, order)
                fused = TreeVE(net)
                with mock.patch.object(engine_tve, "sum_out_members", spy):
                    got = fused.query([query], obs, order)
                assert fused.counters == eager.counters
                assert got.max_abs_diff(expected) < 1e-12
        # both kinds of pair were contracted: y in a table and y in a body
        assert body_pairs > 0 and table_pairs > 0

    def test_peak_memory_stays_near_the_result(self):
        # y's bucket: its prior, A over (y, x1..x9) and B over (y, z1..z10).
        # The last compatible pair would multiply out to 2^22 entries; the
        # result over the other 21 variables has 2^21.
        names = ["y", *(f"x{i}" for i in range(1, 10)), "a", *(f"z{i}" for i in range(1, 11)), "b"]
        cat = DomainCatalog([(name, ("0", "1")) for name in names])
        rng = SplitMix64(5)
        y, a, b = cat.index("y"), cat.index("a"), cat.index("b")
        parents = {
            a: [y, *range(1, 10)],
            b: [y, *range(11, 21)],
        }

        def cpt(vars):
            arr = np.array([0.05 + rng.uniform() for _ in range(2 ** len(vars))])
            arr = arr.reshape((2,) * len(vars))
            return Table(vars, arr / arr.sum(axis=-1, keepdims=True))

        families = []
        for x in range(len(names)):
            vs = parents.get(x, [])
            families.append(from_skeleton(cat, x, [(Context(), cpt((*vs, x)))]))
        net = ContextualBeliefNetwork(cat, families)
        engine = TreeVE(net)
        engine.order = [y]
        engine.begin()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            engine.eliminate(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (result,) = [g for g in engine.items if a in g.vars]
        (member,) = result.members
        assert member.table.size == 1 << 21
        assert engine.counters.max_table_size == 1 << 22
        assert peak < 1.5 * member.table.array.nbytes
