"""The default elimination order, the pruning of barren variables before
planning, and long chains that the order makes cheap."""

import math
from unittest import mock

import numpy as np
import pytest

from ctxve import (
    ENGINES,
    Confactor,
    Context,
    ContextualBeliefNetwork,
    ContextualVE,
    DomainCatalog,
    GenConfig,
    SplitMix64,
    Table,
    ZeroEvidenceError,
    enum_query,
    from_tabular_cpt,
    generate_biased_cbn,
    generate_random_cbn,
    min_size_order,
    run_campaign,
)
from ctxve import network, orders
from ctxve.orders import relevant_variables

from conftest import (
    alternating_emissions,
    binary_hmm,
    fingerprint,
    random_evidence,
    recording,
    whole_set_split,
)


def ancestral_set(net, query_vars, obs):
    """Reference: the query and observed variables and all their ancestors,
    grown to a fixpoint over parent sets read from each family's confactors."""
    parents = [
        {v for r in fam for v in r.vars} - {x} for x, fam in enumerate(net.families)
    ]
    found = set(query_vars) | set(obs.vars())
    while True:
        grown = found.union(*(parents[x] for x in found))
        if grown == found:
            return found
        found = grown


def rescan_min_size_order(net, query_vars, obs):
    """Reference: the greedy min-size order over the ancestral set, by full
    rescan.  Every step scores every remaining variable by the product of
    the domain sizes of the union of the scopes holding it, takes the first
    (lowest id) minimum and merges the scopes it touched."""
    cat = net.catalog
    relevant = ancestral_set(net, query_vars, obs)
    scopes = []
    for x in sorted(relevant):
        scope = {v for r in net.families[x] for v in r.vars} - set(obs.vars())
        if scope:
            scopes.append(scope)
    remaining = [v for v in sorted(relevant) if v not in set(query_vars) and v not in obs]
    order = []
    while remaining:
        best = None
        best_cost = None
        for y in remaining:
            union = {y}
            for scope in scopes:
                if y in scope:
                    union |= scope
            cost = math.prod(cat.size(v) for v in union)
            if best_cost is None or cost < best_cost:
                best, best_cost = y, cost
        order.append(best)
        involved = [s for s in scopes if best in s]
        scopes = [s for s in scopes if best not in s]
        if involved:
            merged = set().union(*involved) - {best}
            if merged:
                scopes.append(merged)
        remaining.remove(best)
    return order


def random_query(net, rng, max_query=3):
    """1 to ``max_query`` query variables and random evidence on some of the rest."""
    n = net.n_vars()
    query = []
    for _ in range(1 + rng.below(max_query)):
        v = rng.below(n)
        if v not in query:
            query.append(v)
    observed = {}
    for v in range(n):
        if v not in query and rng.below(3) == 0:
            observed[v] = rng.below(net.catalog.size(v))
    return query, Context(sorted(observed.items()))


def mixed_domain_network(seed: int, n: int = 10) -> ContextualBeliefNetwork:
    """Dense CPTs over domains of 2, 3, 4 and 6 values, each variable with up
    to two earlier parents: products such as 2*3 and 6 tie often."""
    rng = SplitMix64(seed)
    sizes = [(2, 3, 4, 6)[rng.below(4)] for _ in range(n)]
    cat = DomainCatalog([(f"x{i}", tuple(f"k{j}" for j in range(s))) for i, s in enumerate(sizes)])
    families = []
    for x in range(n):
        parents = sorted({rng.below(x) for _ in range(rng.below(3))}) if x else []
        vars = tuple(parents) + (x,)
        shape = cat.shape(vars)
        uniform = Table(vars, np.full(shape, 1.0 / sizes[x]))
        families.append(from_tabular_cpt(cat, x, parents, uniform))
    return ContextualBeliefNetwork(cat, families)


class TestMinSizeOrder:
    """The incremental planner gives exactly the rescan's order."""

    @pytest.mark.parametrize("generate", [generate_random_cbn, generate_biased_cbn])
    def test_generated_networks(self, generate):
        rng = SplitMix64(2024)
        for seed in range(12):
            net = generate(GenConfig(n=16, s=10, p=0.3, seed=seed))
            for _ in range(10):
                query, obs = random_query(net, rng)
                assert min_size_order(net, query, obs) == rescan_min_size_order(net, query, obs)

    def test_mixed_domains(self):
        rng = SplitMix64(7)
        for seed in range(20):
            net = mixed_domain_network(seed)
            for _ in range(10):
                query, obs = random_query(net, rng)
                assert min_size_order(net, query, obs) == rescan_min_size_order(net, query, obs)

    def test_ties_go_to_the_lowest_id(self):
        # x2 (6 values) alone, x0 (2) with its child x1 (3), and x1 and x2
        # each with an observed child, so that no variable is barren: every
        # first step builds 6 entries, so the order is x0 (cost 6), x1 (3),
        # x2 (6).
        cat = DomainCatalog(
            [("x0", "ab"), ("x1", "abc"), ("x2", "abcdef"), ("q", "ab"), ("e1", "ab"), ("e2", "ab")]
        )
        families = [
            from_tabular_cpt(cat, 0, [], Table((0,), np.full(2, 0.5))),
            from_tabular_cpt(cat, 1, [0], Table((0, 1), np.full((2, 3), 1 / 3))),
            from_tabular_cpt(cat, 2, [], Table((2,), np.full(6, 1 / 6))),
            from_tabular_cpt(cat, 3, [], Table((3,), np.full(2, 0.5))),
            from_tabular_cpt(cat, 4, [1], Table((1, 4), np.full((3, 2), 0.5))),
            from_tabular_cpt(cat, 5, [2], Table((2, 5), np.full((6, 2), 0.5))),
        ]
        net = ContextualBeliefNetwork(cat, families)
        obs = Context([(4, 0), (5, 1)])
        assert min_size_order(net, [3], obs) == rescan_min_size_order(net, [3], obs) == [0, 1, 2]
        # without the evidence all three are barren for q
        assert min_size_order(net, [3]) == []

    def test_long_chain(self):
        net = binary_hmm(200)
        obs = alternating_emissions(200)
        for query, evidence in (([0], obs), ([2 * 137], obs), ([200, 1], Context())):
            assert min_size_order(net, query, evidence) == rescan_min_size_order(
                net, query, evidence
            )


def criterion_6_cases():
    """Acceptance criterion 6's 200 (network, query, evidence, shuffled full
    orders) cases, drawn from its seed in its order."""
    rng = SplitMix64(20240601)
    for case in range(200):
        n = 4 + rng.below(7)
        s = rng.below(7)
        p = 0.2 if rng.below(2) == 0 else 0.5
        net = generate_random_cbn(GenConfig(n=n, s=s, p=p, seed=case))
        query = rng.below(n)
        k_obs = rng.below(4)
        observed = []
        while len(observed) < min(k_obs, n - 1):
            v = rng.below(n)
            if v != query and v not in observed:
                observed.append(v)
        obs = Context([(v, rng.below(2)) for v in sorted(observed)])
        free = [v for v in range(n) if v != query and v not in obs]
        shuffles = []
        for _ in range(5):
            order = list(free)
            for i in range(len(order) - 1, 0, -1):
                j = rng.below(i + 1)
                order[i], order[j] = order[j], order[i]
            shuffles.append(order)
        yield net, query, obs, shuffles


def barren_chain_network() -> ContextualBeliefNetwork:
    """q and a binary roots, e (observed) their child, and a barren chain
    b1 -> b2 -> b3 of 4-valued children of q, b3's family of 128 entries."""
    four = tuple("abcd")
    cat = DomainCatalog(
        [("q", "tf"), ("a", "tf"), ("e", "tf"), ("b1", four), ("b2", four), ("b3", four)]
    )
    rng = SplitMix64(11)

    def cpt(x, parents):
        vars = (*parents, x)
        arr = np.array([0.1 + rng.uniform() for _ in range(math.prod(cat.shape(vars)))])
        arr = arr.reshape(cat.shape(vars))
        return from_tabular_cpt(cat, x, parents, Table(vars, arr / arr.sum(axis=-1, keepdims=True)))

    families = [cpt(0, []), cpt(1, []), cpt(2, [0, 1]), cpt(3, [0]), cpt(4, [0, 3]), cpt(5, [0, 3, 4])]
    return ContextualBeliefNetwork(cat, families)


class TestBarrenPruning:
    """Barren variables are pruned before planning, in every engine."""

    def test_relevant_variables_are_the_ancestral_set(self):
        rng = SplitMix64(99)
        for seed in range(12):
            net = generate_biased_cbn(GenConfig(n=16, s=10, p=0.3, seed=seed))
            for _ in range(10):
                query, obs = random_query(net, rng)
                assert relevant_variables(net, query, obs) == ancestral_set(net, query, obs)

    def test_one_relevance_walk_per_query(self):
        net = barren_chain_network()
        obs = Context([(2, 0)])
        free = [1, 3, 4, 5]
        for name, cls in ENGINES.items():
            for order in (None, free):
                with mock.patch.object(
                    orders, "relevant_variables", wraps=orders.relevant_variables
                ) as walk:
                    cls(net).query([0], obs, order)
                assert walk.call_count == 1, (name, order)

    def test_context_free_networks_give_every_engine_the_same_mults(self):
        # The paper's reduction claim: with no contextual structure, the
        # contextual and tree engines do exactly the tabular engine's work.
        for generate, n in ((generate_random_cbn, 12), (generate_biased_cbn, 20)):
            nets = [
                (f"s0-{seed}", generate(GenConfig(n=n, s=0, p=0.3, seed=seed)))
                for seed in range(10)
            ]
            records, _ = run_campaign(
                nets, queries_per_net=2, obs_counts=(0, 3, 6), seed=5
            )
            mults = {}
            for rec in records:
                assert rec.error is None, rec
                mults.setdefault((rec.network, rec.query, rec.evidence), {})[rec.engine] = rec.mults
            assert len(mults) == 60
            for row, by_engine in mults.items():
                assert by_engine["cve"] == by_engine["tve"] == by_engine["ve"], (row, by_engine)

    def test_default_order_matches_full_orders_and_enum(self):
        # On criterion 6's networks: the pruned default order answers as a
        # full order that lists every barren variable does, and as enum.
        # Listed barren variables are steps that touch nothing, so slotting
        # them into the default order leaves every counter as it was.
        pruned_rows = 0
        for net, query, obs, shuffled in criterion_6_cases():
            oracle = enum_query(net, [query], obs)
            default = min_size_order(net, [query], obs)
            barren = sorted(set(shuffled[0]) - set(default))
            pruned_rows += bool(barren)
            slotted = barren[::2] + default + barren[1::2]
            for name, cls in ENGINES.items():
                engine = cls(net)
                answer = engine.query([query], obs)
                assert oracle.max_abs_diff(answer) < 1e-9, name
                full = cls(net)
                assert full.query([query], obs, shuffled[0]).max_abs_diff(oracle) < 1e-9, name
                again = cls(net)
                assert again.query([query], obs, slotted).max_abs_diff(answer) == 0.0, name
                assert again.counters.multiplications == engine.counters.multiplications
                assert again.counters.max_table_size == engine.counters.max_table_size
        assert pruned_rows > 100

    def test_barren_chain_is_never_expanded(self):
        # ve makes a family dense by one of two routes: expanded whole by
        # tabular_factor, or only the evidence's block tiled by network.tile.
        # Neither ever reaches a barren family.  In the second network e's
        # family switches on a, so observing e takes the block route.
        plain = barren_chain_network()
        q, a, e, b3 = (plain.catalog.index(name) for name in ("q", "a", "e", "b3"))
        families = list(plain.families)
        families[e] = [
            Confactor(Context([(a, 0)]), Table((q, e), np.array([[0.3, 0.7], [0.6, 0.4]]))),
            Confactor(Context([(a, 1)]), Table((e,), np.array([0.9, 0.1]))),
        ]
        switched = ContextualBeliefNetwork(plain.catalog, families)
        obs = Context([(e, 0)])
        for net, tiled in ((plain, False), (switched, True)):
            expand = net.tabular_factor
            with mock.patch.object(net, "tabular_factor", wraps=expand) as whole, \
                    mock.patch.object(network, "tile", wraps=network.tile) as block:
                engine = ENGINES["ve"](net)
                posterior = engine.query([q], obs)
            wholes = sorted(call.args[0] for call in whole.call_args_list)
            blocks = sorted(net.families.index(call.args[0]) for call in block.call_args_list)
            assert (wholes, blocks) == (([0, 1], [e]) if tiled else ([0, 1, 2], []))
            assert engine.order == [1] and engine.relevant == [0, 1, 2]
            assert posterior.max_abs_diff(enum_query(net, [q], obs)) < 1e-12
            # eliminating a leaves a table over q; eliminating the chain would
            # have summed b3's 128-entry family
            assert engine.counters.max_table_size == 2
            assert expand(b3).size == 128

    @pytest.mark.parametrize("evidence", [{}, {"e": 0}, {"e": 1, "b1": 2}])
    def test_audit_passes_with_barren_variables(self, evidence):
        net = barren_chain_network()
        cat = net.catalog
        q = cat.index("q")
        obs = Context(sorted((cat.index(name), val) for name, val in evidence.items()))
        free = [v for v in range(net.n_vars()) if v != q and v not in obs]
        oracle = enum_query(net, [q], obs)
        for order in (None, free, free[::-1]):
            posterior = ContextualVE(net, audit=True).query([q], obs, order)
            assert posterior.max_abs_diff(oracle) < 1e-12, order


def bucket_cases():
    """(network, query, evidence, order) cases for the bucket-elimination
    equivalence: random and biased networks with contexts and extra
    parents, context-only (p = 0) and context-free (s = 0), each queried
    with the default order and with a user order that also lists every
    barren unobserved variable, shuffled in."""
    rng = SplitMix64(26)
    for seed in range(5):
        for generate in (generate_random_cbn, generate_biased_cbn):
            for s, p in ((4, 0.3), (5, 0.0), (0, 0.4)):
                net = generate(GenConfig(n=9, s=s, p=p, seed=seed))
                query = rng.below(9)
                obs = random_evidence(net, rng, query)
                yield net, [query], obs, None
                order = [v for v in range(9) if v != query and v not in obs]
                for i in range(len(order) - 1, 0, -1):
                    j = rng.below(i + 1)
                    order[i], order[j] = order[j], order[i]
                yield net, [query], obs, order


class TestBucketElimination:
    """``Engine.eliminate`` files each item once, under the first variable
    of the order that it mentions; the whole-set split it replaced stays in
    ``conftest`` as the reference."""

    @pytest.mark.parametrize(
        "engine, audit",
        [("ve", False), ("cve", False), ("cve", True), ("tve", False)],
        ids=["ve", "cve", "cve-audit", "tve"],
    )
    def test_buckets_match_the_whole_set_split(self, engine, audit):
        flags = {"audit": True} if audit else {}
        barren_steps = 0
        for net, query, obs, order in bucket_cases():
            got_engine = recording(ENGINES[engine])(net, **flags)
            want_engine = recording(whole_set_split(ENGINES[engine]))(net, **flags)
            got = got_engine.query(query, obs, order)
            want = want_engine.query(query, obs, order)
            assert got_engine.order == want_engine.order
            # the working set after begin and after every step, in order
            assert got_engine.trace == want_engine.trace
            assert got_engine.counters.eliminations == want_engine.counters.eliminations
            assert got_engine.counters == want_engine.counters
            assert got.vars == want.vars
            assert got.probabilities.tobytes() == want.probabilities.tobytes()
            barren_steps += len(set(got_engine.order) - set(got_engine.relevant))
        assert barren_steps > 0

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_eliminating_out_of_turn_touches_nothing(self, engine):
        net = binary_hmm(3)  # h1, e1, h2, e2, h3, e3
        eng = ENGINES[engine](net)
        eng.order = [0, 2]
        eng.begin(Context([(1, 0)]))
        before = [id(item) for item in eng.items]
        # outside the order, out of turn, and no variable at all
        for y in (4, 2, 7):
            with pytest.raises(ValueError, match="out of turn"):
                eng.eliminate(y)
            assert [id(item) for item in eng.items] == before
            assert eng.counters.eliminations == []
        eng.eliminate(0)
        eng.eliminate(2)
        for y in (0, 2, 4):  # the order is done: again, or past its end
            with pytest.raises(ValueError, match="out of turn"):
                eng.eliminate(y)
        assert [rec.variable for rec in eng.counters.eliminations] == [0, 2]

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_assigning_items_files_them_afresh(self, engine):
        net = binary_hmm(3)
        obs = alternating_emissions(3)
        engines = [ENGINES[engine](net), whole_set_split(ENGINES[engine])(net)]
        for eng in engines:
            eng.order = [0]
            eng.begin(obs)
        got, want = engines
        got.order = [2, 0]
        with pytest.raises(ValueError, match="out of turn"):
            got.eliminate(2)  # still filed under the order begin saw
        reordered = got.items[::-1]
        got.items = reordered
        assert [id(item) for item in got.items] == [id(item) for item in reordered]
        want.order = [2, 0]
        want.items = want.items[::-1]
        for y in (2, 0):
            got.eliminate(y)
            want.eliminate(y)
            assert [fingerprint(i) for i in got.items] == [fingerprint(i) for i in want.items]
        assert got.counters == want.counters
        item = got.items[0]
        with pytest.raises(ValueError, match="twice"):
            got.items = [item, item]
        with pytest.raises(ValueError, match="constant"):
            got.items = [item, Table.scalar(0.5)]


class TestLongChain:
    """c, with P(c) = (0.4, 0.6), independent of a chain whose every emission
    alternates, so that P(evidence) shrinks geometrically with its length."""

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_short_chain_answers(self, engine):
        net = binary_hmm(300, c_prior=(0.4, 0.6))
        posterior = ENGINES[engine](net).query([net.catalog.index("c")], alternating_emissions(300))
        np.testing.assert_allclose(posterior.probabilities, [0.4, 0.6], rtol=1e-12)

    @pytest.mark.xfail(
        strict=True,
        raises=ZeroEvidenceError,
        reason="P(evidence) underflows float64 to 0.0 and reads as impossible evidence",
    )
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_underflowing_chain_answers(self, engine):
        net = binary_hmm(700, c_prior=(0.4, 0.6))
        posterior = ENGINES[engine](net).query([net.catalog.index("c")], alternating_emissions(700))
        np.testing.assert_allclose(posterior.probabilities, [0.4, 0.6], rtol=1e-12)
