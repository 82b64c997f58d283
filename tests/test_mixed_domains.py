"""Differential coverage for non-binary domains across every engine,
including the pair-splitting elimination path."""

import numpy as np
import pytest

from ctxve import (
    Confactor,
    Context,
    ContextualBeliefNetwork,
    ContextualVE,
    DomainCatalog,
    SplitMix64,
    Table,
    cve_query,
    enum_query,
    tve_query,
    ve_query,
)

from conftest import brute_posterior


def mixed_network(seed: int) -> ContextualBeliefNetwork:
    """Five variables with domains of size 3/2/4/2/3 and three-way guards."""
    sizes = [3, 2, 4, 2, 3]
    cat = DomainCatalog(
        [(f"m{i}", tuple(f"k{j}" for j in range(s))) for i, s in enumerate(sizes)]
    )
    rng = SplitMix64(seed)

    def cpt(vars):
        vars = tuple(vars)
        shape = cat.shape(vars)
        arr = np.array(
            [0.05 + rng.uniform() for _ in range(int(np.prod(shape)))]
        ).reshape(shape)
        return Table(vars, arr / arr.sum(axis=len(vars) - 1, keepdims=True))

    families = [
        [Confactor(Context(), cpt([0]))],
        [Confactor(Context(), cpt([0, 1]))],
        # x2's parents switch on the three values of x0
        [
            Confactor(Context([(0, 0)]), cpt([2])),
            Confactor(Context([(0, 1)]), cpt([1, 2])),
            Confactor(Context([(0, 2)]), cpt([2])),
        ],
        [Confactor(Context(), cpt([2, 3]))],
        # x4 guards on the four values of x2, two of them sharing a table shape
        [
            Confactor(Context([(2, 0)]), cpt([4])),
            Confactor(Context([(2, 1)]), cpt([3, 4])),
            Confactor(Context([(2, 2)]), cpt([0, 4])),
            Confactor(Context([(2, 3)]), cpt([4])),
        ],
    ]
    return ContextualBeliefNetwork(cat, families)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_all_engines_agree_on_mixed_domains(seed):
    net = mixed_network(seed)
    assert net.validate() == []
    rng = SplitMix64(seed + 100)
    n = net.n_vars()
    for query in range(n):
        others = [v for v in range(n) if v != query]
        obs_var = others[rng.below(len(others))]
        for obs in [Context(), Context([(obs_var, rng.below(net.catalog.size(obs_var)))])]:
            want = brute_posterior(net, [query], obs)
            oracle = enum_query(net, [query], obs)
            np.testing.assert_allclose(oracle.probabilities, want, atol=1e-9)
            for engine in (ve_query, cve_query, tve_query):
                post, _ = engine(net, [query], obs)
                np.testing.assert_allclose(post.probabilities, want, atol=1e-9)
            audited = ContextualVE(net, audit=True).query([query], obs)
            np.testing.assert_allclose(audited.probabilities, want, atol=1e-9)


def test_random_orders_on_mixed_domains():
    net = mixed_network(9)
    rng = SplitMix64(9)
    n = net.n_vars()
    want = brute_posterior(net, [4])
    for _ in range(6):
        order = [v for v in range(n) if v != 4]
        for i in range(len(order) - 1, 0, -1):
            j = rng.below(i + 1)
            order[i], order[j] = order[j], order[i]
        post, _ = cve_query(net, [4], order=order)
        np.testing.assert_allclose(post.probabilities, want, atol=1e-9)
