"""The default elimination order, and long chains that it makes cheap."""

import math

import numpy as np
import pytest

from ctxve import (
    ENGINES,
    Context,
    ContextualBeliefNetwork,
    DomainCatalog,
    GenConfig,
    SplitMix64,
    Table,
    ZeroEvidenceError,
    from_tabular_cpt,
    generate_biased_cbn,
    generate_random_cbn,
    min_size_order,
)

from conftest import alternating_emissions, binary_hmm


def rescan_min_size_order(net, query_vars, obs):
    """Reference: the greedy min-size order by full rescan.  Every step
    scores every remaining variable by the product of the domain sizes of
    the union of the scopes holding it, takes the first (lowest id) minimum
    and merges the scopes it touched."""
    cat = net.catalog
    scopes = []
    for x in range(net.n_vars()):
        scope = {v for r in net.families[x] for v in r.variables()} - set(obs.vars())
        if scope:
            scopes.append(scope)
    remaining = [v for v in range(net.n_vars()) if v not in set(query_vars) and v not in obs]
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
        # x2 (6 values) alone, x0 (2) with its child x1 (3): every first step
        # builds 6 entries, so the order is x0 (cost 6), x1 (3), x2 (6).
        cat = DomainCatalog([("x0", "ab"), ("x1", "abc"), ("x2", "abcdef"), ("q", "ab")])
        families = [
            from_tabular_cpt(cat, 0, [], Table((0,), np.full(2, 0.5))),
            from_tabular_cpt(cat, 1, [0], Table((0, 1), np.full((2, 3), 1 / 3))),
            from_tabular_cpt(cat, 2, [], Table((2,), np.full(6, 1 / 6))),
            from_tabular_cpt(cat, 3, [], Table((3,), np.full(2, 0.5))),
        ]
        net = ContextualBeliefNetwork(cat, families)
        assert min_size_order(net, [3]) == rescan_min_size_order(net, [3], Context()) == [0, 1, 2]

    def test_long_chain(self):
        net = binary_hmm(200)
        obs = alternating_emissions(200)
        for query, evidence in (([0], obs), ([2 * 137], obs), ([200, 1], Context())):
            assert min_size_order(net, query, evidence) == rescan_min_size_order(
                net, query, evidence
            )


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
