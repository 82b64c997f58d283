"""Contextual elimination: absorption, group sums, purity pruning, evidence
handling and equivalence with the other engines."""

import itertools
from unittest import mock

import numpy as np
import pytest

from ctxve import (
    ENGINES,
    Confactor,
    Context,
    ContextualBeliefNetwork,
    DomainCatalog,
    GenConfig,
    InvariantError,
    SplitMix64,
    Table,
    ZeroEvidenceError,
    compatible,
    cve_query,
    from_tabular_cpt,
    generate_biased_cbn,
    generate_random_cbn,
    incorporate_evidence,
    set_table,
    sum_out_body_occurrences,
    value_at,
    ve_query,
)
from ctxve import engine_cve
from ctxve.confactor import EMPTY
from ctxve.counters import CostCounters
from ctxve.engine_cve import ContextualVE, Member, sum_out_members

from conftest import (
    F,
    T,
    alternating_emissions,
    answer_paths,
    binary_hmm,
    brute_posterior,
    ctx,
    find_confactor,
    random_evidence,
    table,
)


def cval(cat, r, text):
    return value_at(r, ctx(cat, text))


class TestEvidence:
    def test_observation_simplifies_families(self, tree_net):
        cat = tree_net.catalog
        obs = ctx(cat, "d=false,z=false")
        base = incorporate_evidence(tree_net.all_confactors(), obs)
        # the e-confactor guarded by d=true disappears
        bodies = [r.body for r in base]
        assert ctx(cat, "a=false,c=false,d=true") not in bodies
        # the d=false leaf loses its satisfied guard
        r = find_confactor(base, cat, "a=false,c=false")
        np.testing.assert_allclose(r.table.array, [0.5, 0.5])
        # the z-guarded b-conditional collapses onto b
        r = find_confactor(
            [x for x in base if x.table.vars == (cat.index("b"),)], cat, "y=true"
        )
        np.testing.assert_allclose(r.table.array, [0.17, 0.83])
        # the d-family reduces to a single unconditional table over y
        d_members = [
            x for x in base if cat.index("d") in x.for_vars
        ]
        assert len(d_members) == 1
        assert d_members[0].body == Context()
        assert d_members[0].table.vars == (cat.index("y"),)
        np.testing.assert_allclose(d_members[0].table.array, [0.21, 0.41])

    def test_empty_observation_is_identity(self, tree_net):
        base = incorporate_evidence(tree_net.all_confactors(), Context())
        assert len(base) == len(tree_net.all_confactors())

    def test_untouched_confactors_are_shared(self, tree_net):
        # a confactor with no observed variable comes back itself; the
        # others equal a rebuild, field by field
        cat = tree_net.catalog
        obs = ctx(cat, "d=false,z=false")
        confactors = tree_net.all_confactors()
        expected = []
        for r in confactors:
            if compatible(r.body, obs):
                body = Context(p for p in r.body.items() if p[0] not in obs)
                reduced = set_table(r.table, obs)
                if body or reduced.vars:
                    expected.append((r, body, reduced))
        base = incorporate_evidence(confactors, obs)
        assert len(base) == len(expected)
        shared = 0
        for out, (r, body, reduced) in zip(base, expected):
            if not any(v in obs for v in (*r.body.vars(), *r.table.vars)):
                assert out is r
                shared += 1
                continue
            assert out is not r
            assert out.body == body
            assert out.table.vars == reduced.vars
            assert np.array_equal(out.table.array, reduced.array)
            assert (out.for_vars, out.pure_for) == (r.for_vars, r.pure_for)
        assert 0 < shared < len(base)

    def test_zero_probability_evidence(self):
        cat = DomainCatalog([("x", ("true", "false")), ("y", ("true", "false"))])
        net = ContextualBeliefNetwork(
            cat,
            [
                [Confactor(Context(), cat.table((0,), [1.0, 0.0]))],
                [Confactor(Context(), cat.table((0, 1), [0.3, 0.7, 0.5, 0.5]))],
            ],
        )
        for name, answer in answer_paths().items():
            with pytest.raises(ZeroEvidenceError, match="probability zero"):
                answer(net, [1], Context([(0, 1)]))

    def test_family_emptied_by_observation(self):
        # a non-exhaustive family (force-built) that only covers x=true:
        # observing x=false leaves y without any conditional
        cat = DomainCatalog([("x", ("true", "false")), ("y", ("true", "false"))])
        net = ContextualBeliefNetwork(
            cat,
            [
                [Confactor(Context(), cat.table((0,), [0.6, 0.4]))],
                [Confactor(Context([(0, 0)]), cat.table((1,), [0.3, 0.7]))],
            ],
        )
        assert net.validate() != []
        for name, answer in answer_paths().items():
            with pytest.raises(ZeroEvidenceError, match="probability zero"):
                answer(net, [1], Context([(0, 1)]))

    def test_empty_family(self):
        # a force-loaded network whose y has no confactors at all: nothing
        # supports any value of y, whichever variable is asked about
        cat = DomainCatalog([("x", ("true", "false")), ("y", ("true", "false"))])
        net = ContextualBeliefNetwork(
            cat, [[Confactor(Context(), cat.table((0,), [0.3, 0.7]))], []]
        )
        assert net.validate() != []
        for name, answer in answer_paths().items():
            for query in ([0], [1]):
                with pytest.raises(ZeroEvidenceError, match="probability zero"):
                    answer(net, query, Context())


def checks_working_set(cls):
    """``cls`` asserting after ``begin`` and after every ``eliminate`` that
    no item of its working set is a constant."""

    class Checked(cls):
        def begin(self, obs=None):
            super().begin(obs)
            assert all(item.vars for item in self.items)

        def eliminate(self, y):
            super().eliminate(y)
            assert all(item.vars for item in self.items), self.net.catalog.names[y]

    return Checked


@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestConstants:
    """Every engine drops a constant in the step that makes it."""

    def test_no_working_set_holds_a_constant(self, engine):
        checked = checks_working_set(ENGINES[engine])
        net = generate_biased_cbn(GenConfig(n=8, s=4, p=0.3, seed=0))
        cat = net.catalog
        # cve once kept a constant of about 0.0453 here after eliminating x2
        checked(net).query([cat.index("x3")], cat.parse_context("x4=false,x6=true,x7=false"))
        rng = SplitMix64(7)
        for seed in range(10):
            for generate in (generate_random_cbn, generate_biased_cbn):
                net = generate(GenConfig(n=7, s=3, p=0.3, seed=seed))
                for _ in range(2):
                    query = rng.below(net.n_vars())
                    checked(net).query([query], random_evidence(net, rng, query))

    def test_zero_constant_raises_in_its_step(self, engine):
        # a, then b given a with P(b=1 | a) = 0, and a root c: observing
        # b=1 leaves a zero constant once a is eliminated
        cat = DomainCatalog([(name, ("0", "1")) for name in "abc"])
        a, b, c = range(3)
        net = ContextualBeliefNetwork(
            cat,
            [
                from_tabular_cpt(cat, a, [], Table((a,), np.array([0.4, 0.6]))),
                from_tabular_cpt(cat, b, [a], Table((a, b), np.array([[1.0, 0.0], [1.0, 0.0]]))),
                from_tabular_cpt(cat, c, [], Table((c,), np.array([0.5, 0.5]))),
            ],
        )
        eng = ENGINES[engine](net)
        eng.begin(Context([(b, 1)]))
        with pytest.raises(ZeroEvidenceError, match="probability zero"):
            eng.eliminate(a)


def eliminated(net, var_name):
    """An audited engine after eliminating one variable with no evidence."""
    engine = ContextualVE(net, audit=True)
    engine.begin()
    engine.eliminate(net.catalog.index(var_name))
    return engine


class TestAbsorb:
    def test_incoming_confactor_is_never_split(self, tree_net):
        cat = tree_net.catalog
        engine = eliminated(tree_net, "b")
        # Only b's two members are split: on a to absorb <a=true>, then on c
        # and d to absorb <a=false,c=false,d=true>.  Splitting an incoming
        # confactor would also split it on y.
        assert engine.counters.splits == 6
        # each a=true product holds the whole incoming table, summed over b
        prod = find_confactor(engine.items, cat, "y=true,a=true")
        assert cval(cat, prod, "y=true,a=true,e=true,z=true") == pytest.approx(0.4925)
        assert find_confactor(engine.items, cat, "y=false,a=true") is not None
        # purity: products into the pure family keep the incoming purity
        assert prod.pure_for == frozenset({cat.index("e")})

    def test_unit_absorption_keeps_tables(self):
        # An incoming confactor with the empty body splits nothing: every
        # member keeps its body and gathers the incoming table.
        cat = DomainCatalog([(n, ("0", "1")) for n in ["x", "w", "v"]])
        net = ContextualBeliefNetwork(
            cat,
            [
                [Confactor(Context(), cat.table((0,), [0.5, 0.5]))],
                [
                    Confactor(Context([(0, 0)]), cat.table((1,), [0.2, 0.8])),
                    Confactor(Context([(0, 1)]), cat.table((1,), [0.9, 0.1])),
                ],
                [Confactor(Context(), cat.table((1, 2), [0.3, 0.7, 0.6, 0.4]))],
            ],
        )
        engine = eliminated(net, "w")
        assert engine.counters.splits == 0
        created = [r for r in engine.items if r.table.vars == (2,)]
        assert [r.body for r in created] == [Context([(0, 0)]), Context([(0, 1)])]
        np.testing.assert_allclose(created[0].table.array, [0.54, 0.46])
        np.testing.assert_allclose(created[1].table.array, [0.33, 0.67])

    def test_context_free_network_is_never_split(self):
        # Every body is empty, so every absorption lands on a body that
        # already assigns all of the incoming one's: nothing is split, and
        # the step is ve's product and sum.
        net = binary_hmm(30)
        obs = alternating_emissions(30)
        query = [2 * 14]
        with mock.patch.object(
            engine_cve, "split_on_context", wraps=engine_cve.split_on_context
        ) as spy:
            got, c = cve_query(net, query, obs)
        want, ref = ve_query(net, query, obs)
        assert spy.call_count == 0
        assert c.splits == 0
        assert (c.multiplications, c.additions) == (ref.multiplications, ref.additions)
        assert got.max_abs_diff(want) <= 1e-12

    def test_completeness_is_preserved(self, tree_net):
        cat = tree_net.catalog
        engine = eliminated(tree_net, "b")
        out = [r for r in engine.items if cat.index("e") in r.for_vars]
        for r1, r2 in itertools.combinations(out, 2):
            assert not compatible(r1.body, r2.body)
        # counting argument: disjoint bodies must tile the mentioned space
        mentioned = {v for r in out for v in r.body.vars()}
        space = 1
        for v in mentioned:
            space *= cat.size(v)
        covered = sum(
            int(np.prod([cat.size(v) for v in mentioned if v not in r.body]))
            for r in out
        )
        assert covered == space


class TestAudit:
    def test_zeroed_working_set_fails_the_audit(self, tree_net):
        engine = eliminated(tree_net, "b")
        engine.items = [
            Confactor(r.body, Table(r.table.vars, 0 * r.table.array), r.for_vars, r.pure_for)
            for r in engine.items
        ]
        with pytest.raises(InvariantError, match="zero"):
            engine._check_invariants()

    def test_zeroed_reference_fails_the_audit(self, tree_net):
        engine = eliminated(tree_net, "b")
        ref = engine._reference
        engine._reference = Table(ref.vars, 0 * ref.array)
        with pytest.raises(InvariantError, match="zero"):
            engine._check_invariants()


    def test_confactor_tracked_for_a_variable_it_does_not_mention(self):
        # y's bucket is y's own prior; next to it sits a confactor stamped
        # for y that does not mention y, so the bucket leaves it in the rest.
        cat = DomainCatalog([("y", ("0", "1")), ("z", ("0", "1"))])
        y, z = 0, 1
        prior, uniform = cat.table((y,), [0.3, 0.7]), cat.table((z,), [0.5, 0.5])
        net = ContextualBeliefNetwork(
            cat, [[Confactor(Context(), prior)], [Confactor(Context(), uniform)]]
        )
        engine = ContextualVE(net)
        stray = Confactor(Context(), uniform, frozenset({y}))
        engine.items = [Confactor(Context(), prior, frozenset({y})), stray]
        with pytest.raises(InvariantError, match="tracked for a variable it does not involve"):
            engine.eliminate(y)


class TestSumOutOps:
    def test_table_occurrence_sum(self, tree_net):
        cat = tree_net.catalog
        b = cat.index("b")
        prod = Confactor(
            ctx(cat, "a=true,y=true"),
            table(
                cat,
                ["b", "e", "z"],
                [0.4235, 0.0935, 0.3465, 0.0765, 0.069, 0.249, 0.161, 0.581],
            ),
        )
        member = Member(prod.body, [prod.table], prod.for_vars, EMPTY)
        out = sum_out_members(cat, [member], b, CostCounters())
        assert len(out) == 1
        got = out[0]
        assert cval(cat, got, "a=true,y=true,e=true,z=true") == pytest.approx(0.4925)
        assert cval(cat, got, "a=true,y=true,e=true,z=false") == pytest.approx(0.3425)

    def test_pure_confactors_are_deleted(self, tree_net):
        cat = tree_net.catalog
        d = cat.index("d")
        pure = Confactor(
            ctx(cat, "a=false,c=true,z=true"),
            table(cat, ["d"], [0.29, 0.71]),
            frozenset({d}),
            frozenset({d}),
        )
        # the sum-out step deletes a member still pure for d, and keeps the
        # all-ones result of the same member given empty purity (as the tree
        # engine passes its members) ...
        as_member = Member(pure.body, [pure.table], pure.for_vars, pure.pure_for)
        assert sum_out_members(cat, [as_member], d, CostCounters()) == []
        as_member.pure_for = EMPTY
        kept = sum_out_members(cat, [as_member], d, CostCounters())
        assert len(kept) == 1
        assert float(kept[0].table.array) == pytest.approx(1.0)
        # ... while the engine deletes the pieces of d's family that no
        # confactor on e reaches (a=true, and a=false,c=true, for each
        # value of z) instead of summing them to scalar ones
        engine = eliminated(tree_net, "d")
        assert len(engine.counters.eliminations[-1].created) == 2
        # d's two members and e's two d-bodies became the two mixtures
        assert len(engine.items) == len(tree_net.all_confactors()) - 2
        assert all(r.table.vars for r in engine.items)

    def test_group_sum_produces_mixtures(self, tree_net):
        cat = tree_net.catalog
        t3 = table(cat, ["b", "e"], [0.025, 0.975, 0.85, 0.15])
        t4 = table(cat, ["e"], [0.5, 0.5])
        t8d = table(cat, ["y"], [0.79, 0.59])
        t8nd = table(cat, ["y"], [0.21, 0.41])
        from ctxve import product

        groups = [
            [
                Confactor(ctx(cat, "a=false,c=false,z=true"), product(Table.scalar(0.29), t3)),
                Confactor(ctx(cat, "a=false,c=false,z=false"), product(t8d, t3)),
            ],
            [
                Confactor(ctx(cat, "a=false,c=false,z=true"), product(Table.scalar(0.71), t4)),
                Confactor(ctx(cat, "a=false,c=false,z=false"), product(t8nd, t4)),
            ],
        ]
        out = sum_out_body_occurrences(groups)
        assert len(out) == 2
        first = find_confactor(out, cat, "a=false,c=false,z=true")
        assert cval(cat, first, "a=false,b=true,c=false,e=true,z=true") == pytest.approx(0.36225)
        assert cval(cat, first, "a=false,b=false,c=false,e=true,z=true") == pytest.approx(0.6015)
        second = find_confactor(out, cat, "a=false,c=false,z=false")
        assert cval(
            cat, second, "a=false,b=true,c=false,e=true,y=true,z=false"
        ) == pytest.approx(0.12475)
        assert cval(
            cat, second, "a=false,b=true,c=false,e=true,y=false,z=false"
        ) == pytest.approx(0.21975)

    def test_scalar_groups_add(self):
        groups = [
            [Confactor(Context(), Table.scalar(p))] for p in (0.2, 0.3, 0.5)
        ]
        out = sum_out_body_occurrences(groups)
        assert len(out) == 1
        assert float(out[0].table.array) == pytest.approx(1.0)

    def test_empty_sibling_group_is_an_error(self):
        groups = [[Confactor(Context(), Table.scalar(0.4))], []]
        with pytest.raises(InvariantError, match="empty sibling"):
            sum_out_body_occurrences(groups)


class TestEliminateReferenceNetworks:
    def eliminate(self, net, var_name, **flags):
        engine = ContextualVE(net, **flags)
        engine.begin()
        before = {id(r) for r in engine.items}
        engine.eliminate(net.catalog.index(var_name))
        engine.created = [r for r in engine.items if id(r) not in before]
        return engine

    def test_eliminating_b_rebuilds_the_four_mixtures(self, tree_net):
        cat = tree_net.catalog
        engine = self.eliminate(tree_net, "b")
        created = engine.counters.eliminations[-1]
        assert len(created.created) == 4
        ay = find_confactor(engine.items, cat, "a=true,y=true")
        assert cval(cat, ay, "a=true,e=true,y=true,z=true") == pytest.approx(0.4925)
        assert cval(cat, ay, "a=true,e=true,y=true,z=false") == pytest.approx(0.3425)
        assert cval(cat, ay, "a=true,e=false,y=true,z=true") == pytest.approx(0.5075)
        any_ = find_confactor(engine.items, cat, "a=true,y=false")
        assert cval(cat, any_, "a=true,e=true,y=false") == pytest.approx(0.3675)
        dy = find_confactor(engine.items, cat, "a=false,c=false,d=true,y=true")
        assert cval(
            cat, dy, "a=false,c=false,d=true,e=true,y=true,z=true"
        ) == pytest.approx(0.21475)
        assert cval(
            cat, dy, "a=false,c=false,d=true,e=true,y=true,z=false"
        ) == pytest.approx(0.70975)
        dny = find_confactor(engine.items, cat, "a=false,c=false,d=true,y=false")
        assert cval(cat, dny, "a=false,c=false,d=true,e=true,y=false") == pytest.approx(0.62725)

    def test_eliminating_b_leaves_no_trivial_confactors(self, tree_net):
        cat = tree_net.catalog
        engine = self.eliminate(tree_net, "b")
        # in the a=false,c=true region b has no children: with purity
        # pruning nothing is created there at all
        assert len(engine.created) == 4
        for r in engine.created:
            body = r.body
            assert not (
                body.get(cat.index("a")) == F and body.get(cat.index("c")) == T
            )

    def test_eliminating_d_rebuilds_the_two_mixtures(self, tree_net):
        cat = tree_net.catalog
        engine = self.eliminate(tree_net, "d")
        z1 = find_confactor(engine.items, cat, "a=false,c=false,z=true")
        assert cval(cat, z1, "a=false,b=true,c=false,e=true,z=true") == pytest.approx(0.36225)
        assert cval(cat, z1, "a=false,b=false,c=false,e=true,z=true") == pytest.approx(0.6015)
        assert cval(cat, z1, "a=false,b=true,c=false,e=false,z=true") == pytest.approx(0.63775)
        z0 = find_confactor(engine.items, cat, "a=false,c=false,z=false")
        assert cval(
            cat, z0, "a=false,b=true,c=false,e=true,y=true,z=false"
        ) == pytest.approx(0.12475)
        assert cval(
            cat, z0, "a=false,b=true,c=false,e=true,y=false,z=false"
        ) == pytest.approx(0.21975)
        assert cval(
            cat, z0, "a=false,b=false,c=false,e=true,y=true,z=false"
        ) == pytest.approx(0.7765)
        assert cval(
            cat, z0, "a=false,b=false,c=false,e=true,y=false,z=false"
        ) == pytest.approx(0.7065)

    def test_hot_houses_decouple_outside_the_double_failure(self, hvac_net):
        cat = hvac_net.catalog
        engine = self.eliminate(hvac_net, "ot")
        rec = engine.counters.eliminations[-1]
        assert rec.size == 24
        both = find_confactor(engine.items, cat, "fb=true,mb=true")
        assert set(both.table.vars) == {cat.index(n) for n in ["fh", "mh", "s"]}
        from conftest import HVAC_P as P

        want = P["p9"] * P["p5"] * P["p1"] + (1 - P["p9"]) * P["p6"] * P["p2"]
        assert cval(
            cat, both, "fb=true,mb=true,fh=true,mh=true,s=true"
        ) == pytest.approx(want)
        fred_only = find_confactor(engine.items, cat, "fb=true,mb=false")
        assert set(fred_only.table.vars) == {cat.index("fh"), cat.index("s")}
        mary_only = find_confactor(engine.items, cat, "fb=false,mb=true")
        assert set(mary_only.table.vars) == {cat.index("mh"), cat.index("s")}
        # the double-working region contributes nothing new: the original
        # switched conditionals survive untouched
        assert find_confactor(engine.items, cat, "fb=false") is not None
        assert find_confactor(engine.items, cat, "mb=false") is not None
        bodies = [r.body for r in engine.items]
        assert ctx(cat, "fb=false,mb=false") not in bodies


class TestQueryEquivalence:
    def test_matches_enumeration_on_tree_network(self, tree_net):
        cat = tree_net.catalog
        e = cat.index("e")
        order = [cat.index(n) for n in ["b", "d", "c", "a", "y", "z"]]
        posterior, _ = cve_query(tree_net, [e], order=order)
        np.testing.assert_allclose(
            posterior.probabilities, brute_posterior(tree_net, [e]), atol=1e-9
        )

    def test_matches_enumeration_with_evidence(self, tree_net):
        cat = tree_net.catalog
        e = cat.index("e")
        obs = ctx(cat, "d=false,z=false")
        posterior, _ = cve_query(tree_net, [e], obs)
        np.testing.assert_allclose(
            posterior.probabilities, brute_posterior(tree_net, [e], obs), atol=1e-9
        )

    def test_audit_mode_passes_on_tree_network(self, tree_net):
        cat = tree_net.catalog
        e = cat.index("e")
        posterior = ContextualVE(tree_net, audit=True).query([e])
        np.testing.assert_allclose(
            posterior.probabilities, brute_posterior(tree_net, [e]), atol=1e-9
        )

    def test_tabular_network_reduces_to_ve(self, tree_net):
        # re-ingest every family as a dense CPT: bodies all empty
        cat = tree_net.catalog
        from ctxve import from_tabular_cpt

        families = []
        for x in range(tree_net.n_vars()):
            dense = tree_net.tabular_factor(x)
            families.append(
                from_tabular_cpt(cat, x, [v for v in dense.vars if v != x], dense)
            )
        tabular = ContextualBeliefNetwork(cat, families)
        e = cat.index("e")
        order = [cat.index(n) for n in ["b", "d", "c", "a", "y", "z"]]
        ve_post, ve_counters = ve_query(tabular, [e], order=order)
        cve_post, cve_counters = cve_query(tabular, [e], order=order)
        assert ve_post.max_abs_diff(cve_post) < 1e-12
        assert cve_counters.multiplications == ve_counters.multiplications
        assert cve_counters.additions == ve_counters.additions
        assert cve_counters.splits == 0
        assert cve_counters.max_table_size == ve_counters.max_table_size

    def test_random_networks_agree_with_enumeration(self):
        rng = SplitMix64(31337)
        for seed in range(10):
            net = generate_random_cbn(GenConfig(n=7, s=4, p=0.35, seed=seed))
            query = rng.below(7)
            others = [v for v in range(7) if v != query]
            obs_vars = sorted({others[rng.below(len(others))] for _ in range(2)})
            obs = Context([(v, rng.below(2)) for v in obs_vars])
            posterior = ContextualVE(net, audit=True).query([query], obs)
            want = brute_posterior(net, [query], obs)
            np.testing.assert_allclose(posterior.probabilities, want, atol=1e-9)

    def test_multivariable_query(self, tree_net):
        cat = tree_net.catalog
        qs = [cat.index("e"), cat.index("y")]
        posterior, _ = cve_query(tree_net, qs)
        np.testing.assert_allclose(
            posterior.probabilities, brute_posterior(tree_net, qs), atol=1e-9
        )
