"""Enumeration oracle and the benchmark campaign plumbing."""

import hashlib
import re

import numpy as np
import pytest

from ctxve import (
    Confactor,
    Context,
    ContextualBeliefNetwork,
    DomainCatalog,
    ENGINES,
    GenConfig,
    SplitMix64,
    enum_query,
    generate_biased_cbn,
    min_size_order,
    generate_random_cbn,
    run_campaign,
    cve_query,
)
from ctxve.bench import CSV_HEADER, check_row, sample_queries
from ctxve.errors import InvariantError

from conftest import answer_paths, brute_posterior, ctx


class TestEnumQuery:
    def test_matches_engines_with_evidence(self, tree_net):
        cat = tree_net.catalog
        e = cat.index("e")
        obs = ctx(cat, "d=false,z=false")
        oracle = enum_query(tree_net, [e], obs)
        engine, _ = cve_query(tree_net, [e], obs)
        assert oracle.max_abs_diff(engine) < 1e-9

    def test_deterministic_chain_is_a_point_mass(self):
        cat = DomainCatalog([("x", ("0", "1")), ("y", ("0", "1"))])
        net = ContextualBeliefNetwork(
            cat,
            [
                [Confactor(Context(), cat.table((0,), [1.0, 0.0]))],
                [Confactor(Context(), cat.table((0, 1), [1.0, 0.0, 0.0, 1.0]))],
            ],
        )
        posterior = enum_query(net, [1])
        np.testing.assert_allclose(posterior.probabilities, [1.0, 0.0])

    def test_uniform_network_is_uniform(self):
        cat = DomainCatalog([("x", ("0", "1")), ("y", ("0", "1"))])
        net = ContextualBeliefNetwork(
            cat,
            [
                [Confactor(Context(), cat.table((0,), [0.5, 0.5]))],
                [Confactor(Context(), cat.table((0, 1), [0.5, 0.5, 0.5, 0.5]))],
            ],
        )
        posterior = enum_query(net, [1])
        np.testing.assert_allclose(posterior.probabilities, [0.5, 0.5])

    def test_cap_guard(self, tree_net):
        with pytest.raises(ValueError, match="cap"):
            enum_query(tree_net, [0], cap=16)

    def test_agrees_with_brute_force(self, tree_net):
        cat = tree_net.catalog
        for name in ["e", "b", "z"]:
            q = cat.index(name)
            got = enum_query(tree_net, [q])
            np.testing.assert_allclose(
                got.probabilities, brute_posterior(tree_net, [q]), atol=1e-12
            )


def test_every_path_rejects_the_same_bad_queries():
    # a repeated, an unknown, an observed and an empty query; evidence on an
    # unknown variable, and evidence values above and below the domain
    net = generate_random_cbn(GenConfig(n=5, s=2, seed=1))
    cases = [
        ([0, 0], Context(), "repeats"),
        ([99], Context(), "unknown"),
        ([0], Context([(0, 0)]), "observed"),
        ([], Context(), "empty"),
        ([0], Context([(99, 0)]), "unknown evidence"),
        ([0], Context([(1, 5)]), "out of range"),
        ([0], Context([(1, -1)]), "out of range"),
    ]
    for query, obs, word in cases:
        messages = set()
        for name, answer in answer_paths().items():
            with pytest.raises(ValueError, match=word) as info:
                answer(net, query, obs)
            assert type(info.value) is ValueError, name
            messages.add(str(info.value))
        assert len(messages) == 1, messages


def test_every_engine_rejects_the_same_bad_orders():
    # unknown ids (above and below the range), a repeat, an eliminated query
    # or observed variable and an order that leaves a relevant variable out.
    # x2's ancestors are x0 and x1; the roots x3 and x4 are barren for it.
    net = generate_random_cbn(GenConfig(n=5, s=2, seed=1))
    good = min_size_order(net, [2])
    assert sorted(good) == [0, 1]
    cases = [
        (good + [99, -3], None, "unknown order variable ids: \\[99, -3\\]"),
        (good + [good[0]], None, "duplicates"),
        (good + [2], None, "query variable"),
        (good, Context([(0, 1)]), f"order eliminates observed variable {net.catalog.names[0]}$"),
        (good[1:], None, "does not cover"),
    ]
    for order, obs, pattern in cases:
        for name, cls in ENGINES.items():
            engine = cls(net)
            with pytest.raises(ValueError, match=pattern) as info:
                engine.query([2], obs, order)
            assert type(info.value) is ValueError, name
            assert engine.counters.eliminations == [], name


def test_orders_may_list_or_omit_barren_variables():
    # The same network and query: an order that omits only the barren x3
    # and x4 is accepted, and one that lists them gives the same answer and
    # costs, its barren steps touching nothing.
    net = generate_random_cbn(GenConfig(n=5, s=2, seed=1))
    good = min_size_order(net, [2])
    for name, cls in ENGINES.items():
        pruned, full = cls(net), cls(net)
        answer = pruned.query([2], None, good)
        assert full.query([2], None, [3, *good, 4]).max_abs_diff(answer) == 0.0, name
        assert full.counters.multiplications == pruned.counters.multiplications, name
        steps = {r.variable: r for r in full.counters.eliminations}
        assert [steps[v].created for v in (3, 4)] == [(), ()], name
        assert [steps[v].size for v in (3, 4)] == [0, 0], name


def test_all_engines_agree_on_regression_networks():
    from conftest import hvac_network, wide_network
    from ctxve import tve_query, ve_query

    for net in [hvac_network(), wide_network(w_size=40, seed=2)]:
        cat = net.catalog
        for query in range(net.n_vars()):
            oracle = enum_query(net, [query])
            for engine in (ve_query, cve_query, tve_query):
                post, _ = engine(net, [query])
                assert oracle.max_abs_diff(post) < 1e-9, (cat.names[query], engine)


def strip_time(doc):
    """The CSV lines of a campaign with the time_ms column blanked."""
    rows = []
    for line in doc.strip().split("\n"):
        cells = line.split(",")
        if len(cells) > 4:
            cells[4] = ""
        rows.append(",".join(cells))
    return rows


class TestCheckRow:
    def answers(self, tree_net):
        e = tree_net.catalog.index("e")
        return {name: cls.answer(tree_net, [e]) for name, cls in ENGINES.items()}

    def test_agreeing_engines_pass(self, tree_net):
        check_row(self.answers(tree_net), "tree e")

    def test_one_engine_passes(self, tree_net):
        check_row({"tve": self.answers(tree_net)["tve"]}, "tree e")

    def test_disagreement_raises(self, tree_net):
        answers = self.answers(tree_net)
        post, counters = answers["cve"]
        post.table.array[...] = post.table.array[::-1]
        with pytest.raises(InvariantError, match="engines cve and tve disagree by .* on tree e"):
            check_row(answers, "tree e")

    def test_tve_multiplying_more_than_ve_raises(self, tree_net):
        answers = self.answers(tree_net)
        answers["tve"][1].multiplications = answers["ve"][1].multiplications + 1
        with pytest.raises(InvariantError, match="tree engine multiplied more .* on tree e"):
            check_row(answers, "tree e")


class TestCampaign:
    def nets(self):
        return [
            (f"gen-{seed}", generate_random_cbn(GenConfig(n=7, s=4, p=0.3, seed=seed)))
            for seed in (0, 1)
        ]

    def test_csv_header_and_shape(self):
        records, csv = run_campaign(
            self.nets(), queries_per_net=1, obs_counts=(0, 2), seed=5
        )
        lines = csv.strip().split("\n")
        assert lines[0] == CSV_HEADER
        # 2 nets x 2 obs settings x 3 engines
        assert len(records) == 12
        assert len(lines) == 13

    def test_determinism_modulo_time(self):
        kwargs = dict(queries_per_net=2, obs_counts=(0, 2), seed=9)
        _, csv1 = run_campaign(self.nets(), **kwargs)
        _, csv2 = run_campaign(self.nets(), **kwargs)
        assert strip_time(csv1) == strip_time(csv2)

    def test_paper_counters_are_pinned(self):
        # Every counter column of a small biased campaign, pinned by hash:
        # any change to what an engine multiplies, adds, splits or
        # materializes changes it.  The tree engine keeps the all-ones
        # results of pure members; pruning them there changes the hash.  It
        # drops constant groups as the tabular engine drops its scalars
        # (the hash was a98fce8705e243f9 while it multiplied them in).
        # Barren variables are pruned before planning in every engine, and
        # equal-sized tables are folded in scope order (the hash was
        # ecac1153694f8c36 before both).
        nets = [
            (f"b{k}", generate_biased_cbn(GenConfig(n=16, s=12, p=0.2, seed=k)))
            for k in range(8)
        ]
        _, csv = run_campaign(nets, obs_counts=(0, 3, 6), seed=7)
        digest = hashlib.sha256("\n".join(strip_time(csv)).encode()).hexdigest()
        assert digest.startswith("738b7cb66097d830"), digest

    def test_campaign_engines_plan_the_min_size_order(self):
        # run_campaign leaves the order to each engine; every engine must
        # then run the one greedy min-size order on the campaign's rows.
        rng = SplitMix64(7)
        for k in range(4):
            net = generate_biased_cbn(GenConfig(n=16, s=12, p=0.2, seed=k))
            for query, obs in sample_queries(net, rng, 1, (0, 3, 6)):
                want = min_size_order(net, [query], obs)
                for name, cls in ENGINES.items():
                    engine = cls(net)
                    engine.query([query], obs)
                    assert engine.order == want, (k, query, name)

    def test_context_only_networks_pass_the_mults_check(self):
        # Valid context-only networks on which the tree engine multiplied
        # more than the tabular one before barren variables were pruned: on
        # c5/x8 its merge order differed from the tabular engine's after
        # evidence (196 vs 172 mults).
        nets = [
            (f"c{k}", generate_biased_cbn(GenConfig(n=12, s=40, p=0.0, seed=k)))
            for k in range(8)
        ]
        run_campaign(nets, obs_counts=(0, 3, 6), seed=7)

    @pytest.mark.xfail(
        strict=True,
        raises=RuntimeError,
        reason="tve sorts its merges by tables.fold_key on the groups' vars, "
        "not on ve's dense scopes",
    )
    def test_evidence_narrowed_groups_pass_the_mults_check(self):
        # Query x6 with x2 and x8 observed: observing x2 drops every member
        # of x4's family that mentions x3, so x4's group leaves x3's bucket
        # while x4's dense factor stays in it, and the two engines fold
        # different buckets (36 vs 34 mults).  All of these families are
        # relevant, so pruning barren variables cannot mend it.
        net = generate_random_cbn(GenConfig(n=8, s=4, p=0.2, seed=405))
        run_campaign([("r405", net)], queries_per_net=2, obs_counts=(0, 2), seed=405)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="unknown engines"):
            run_campaign(self.nets(), engines=("ve", "nope"))
        with pytest.raises(ValueError, match=re.escape("repeated engines: ['cve', 've']")):
            run_campaign(self.nets(), engines=("ve", "cve", "ve", "tve", "cve"))
        for count in (0, -2):
            with pytest.raises(ValueError, match="queries per network"):
                run_campaign(self.nets(), queries_per_net=count)
        with pytest.raises(ValueError, match="observation counts"):
            run_campaign(self.nets(), obs_counts=(0, -3))
        with pytest.raises(ValueError, match="no engines"):
            run_campaign(self.nets(), engines=())
        with pytest.raises(ValueError, match="no observation counts"):
            run_campaign(self.nets(), obs_counts=())

    def test_tve_drops_the_constants_ve_drops(self):
        # Eliminating the unconnected roots x4 and x5 and the barren leaf x3
        # leaves constant groups; multiplying them into the answer would
        # cost the tree engine more than the tabular engine.
        net = generate_random_cbn(GenConfig(n=5, s=2, seed=1))
        records, _ = run_campaign(
            [("n5", net)], queries_per_net=3, obs_counts=(0,)
        )
        mults = {(r.query, r.evidence, r.engine): r.mults for r in records}
        rows = {(r.query, r.evidence) for r in records}
        assert len(rows) > 1
        for q, e in rows:
            assert mults[q, e, "tve"] <= mults[q, e, "ve"]

    def test_tabular_network_equalizes_ve_and_cve_columns(self):
        # fully connected, so every family is multiplied before its variable
        # is eliminated and the contextual engine degenerates exactly
        from ctxve import SplitMix64, Table, from_tabular_cpt

        rng = SplitMix64(77)
        cat = DomainCatalog([(f"x{i}", ("0", "1")) for i in range(5)])
        families = []
        for x in range(5):
            vars = tuple(range(x + 1))
            arr = np.array([rng.uniform() for _ in range(2 ** (x + 1))]).reshape(
                cat.shape(vars)
            )
            arr = arr / arr.sum(axis=x, keepdims=True)
            families.append(from_tabular_cpt(cat, x, list(range(x)), Table(vars, arr)))
        tabular = ContextualBeliefNetwork(cat, families)
        records, _ = run_campaign(
            [("tab", tabular)],
            queries_per_net=6,
            obs_counts=(0, 2),
            seed=3,
        )
        by_key = {}
        for rec in records:
            by_key.setdefault((rec.query, rec.evidence), {})[rec.engine] = rec
        exact_rows = 0
        for (query, _evidence), engines in by_key.items():
            # ones pruning never makes the contextual engine dearer, and on
            # rows where no family stays pure (querying the sink keeps every
            # conditional in play) the degenerate engines coincide exactly
            assert engines["cve"].mults <= engines["ve"].mults
            assert engines["cve"].adds <= engines["ve"].adds
            if query == "x4":
                exact_rows += 1
                assert engines["ve"].mults == engines["cve"].mults
                assert engines["ve"].adds == engines["cve"].adds
        assert exact_rows >= 1

    def test_engine_failure_becomes_error_row(self):
        cat = DomainCatalog([("x", ("0", "1")), ("y", ("0", "1"))])
        net = ContextualBeliefNetwork(
            cat,
            [
                [Confactor(Context(), cat.table((0,), [1.0, 0.0]))],
                [Confactor(Context(), cat.table((0, 1), [0.5, 0.5, 0.5, 0.5]))],
            ],
        )
        # seed chosen so that the sampled evidence hits the zero branch
        for seed in range(40):
            records, csv = run_campaign(
                [("z", net)],
                queries_per_net=1,
                obs_counts=(1,),
                seed=seed,
            )
            if any(r.error for r in records):
                assert any("error" in line for line in csv.split("\n"))
                break
        else:
            pytest.fail("no sampled row hit the zero-probability branch")
