"""Acceptance suite: every exit criterion at its stated tolerance.

Each test is one criterion; the conftest hook prints a pass/fail line per
criterion.  Run with ``pytest tests/test_acceptance.py -v``.
"""

import time

import numpy as np
import pytest

from ctxve import (
    Confactor,
    CompressionConfig,
    Context,
    CostCounters,
    DomainCatalog,
    GenConfig,
    SplitMix64,
    Table,
    compress_family,
    count_split_pieces,
    cve_query,
    enum_query,
    generate_biased_cbn,
    generate_random_cbn,
    product,
    run_campaign,
    tve_query,
    ve_query,
)
from ctxve.engine_cve import ContextualVE
from ctxve.engine_tve import TreeVE
from ctxve.engine_ve import TabularVE
from ctxve.tables import multiply_all

from conftest import (
    ctx,
    elimination_for,
    find_confactor,
    hvac_network,
    residual,
    tree_network,
    wide_network,
)


def timed(bound_s):
    """Context manager asserting the wrapped block stays under its budget."""

    class _Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.start
            if exc[0] is None:
                assert self.elapsed < bound_s, (
                    f"runtime {self.elapsed:.2f}s exceeds {bound_s}s budget"
                )
            return False

    return _Timer()


def value(cat, r, text):
    from ctxve import value_at

    return value_at(r, ctx(cat, text))


def test_criterion_1_reference_mixture_regression():
    """Eliminating the two tree-structured variables reproduces every
    expected mixture entry to 1e-9."""
    with timed(1.0):
        net = tree_network()
        cat = net.catalog
        tol = 1e-9

        engine = ContextualVE(net)
        engine.order = [cat.index("b")]
        engine.begin()
        engine.eliminate(cat.index("b"))
        ay = find_confactor(engine.items, cat, "a=true,y=true")
        assert value(cat, ay, "a=true,e=true,y=true,z=true") == pytest.approx(0.4925, abs=tol)
        assert value(cat, ay, "a=true,e=true,y=true,z=false") == pytest.approx(0.3425, abs=tol)
        any_ = find_confactor(engine.items, cat, "a=true,y=false")
        assert value(cat, any_, "a=true,e=true,y=false") == pytest.approx(0.3675, abs=tol)
        dy = find_confactor(engine.items, cat, "a=false,c=false,d=true,y=true")
        assert value(cat, dy, "a=false,c=false,d=true,e=true,y=true,z=true") == pytest.approx(0.21475, abs=tol)
        assert value(cat, dy, "a=false,c=false,d=true,e=true,y=true,z=false") == pytest.approx(0.70975, abs=tol)
        dny = find_confactor(engine.items, cat, "a=false,c=false,d=true,y=false")
        assert value(cat, dny, "a=false,c=false,d=true,e=true,y=false") == pytest.approx(0.62725, abs=tol)

        engine = ContextualVE(net)
        engine.order = [cat.index("d")]
        engine.begin()
        engine.eliminate(cat.index("d"))
        z1 = find_confactor(engine.items, cat, "a=false,c=false,z=true")
        assert value(cat, z1, "a=false,b=true,c=false,e=true,z=true") == pytest.approx(0.36225, abs=tol)
        assert value(cat, z1, "a=false,b=false,c=false,e=true,z=true") == pytest.approx(0.6015, abs=tol)
        z0 = find_confactor(engine.items, cat, "a=false,c=false,z=false")
        assert value(cat, z0, "a=false,b=true,c=false,e=true,y=true,z=false") == pytest.approx(0.12475, abs=tol)
        assert value(cat, z0, "a=false,b=true,c=false,e=true,y=false,z=false") == pytest.approx(0.21975, abs=tol)
        assert value(cat, z0, "a=false,b=false,c=false,e=true,y=true,z=false") == pytest.approx(0.7765, abs=tol)
        assert value(cat, z0, "a=false,b=false,c=false,e=true,y=false,z=false") == pytest.approx(0.7065, abs=tol)


def test_criterion_2_elimination_size_claims():
    """Contextual elimination peaks at a 16-entry multiset on the tree
    network; the dense engine builds a 64-entry factor for the same step."""
    with timed(1.0):
        net = tree_network()
        cat = net.catalog
        e = cat.index("e")
        order = [cat.index(n) for n in ["b", "d", "c", "a", "y", "z"]]
        _, cve_counters = cve_query(net, [e], order=order)
        assert cve_counters.max_elim_size == 16
        _, ve_counters = ve_query(net, [e], order=order)
        b_record = elimination_for(ve_counters, cat.index("b"))
        assert b_record.created == (64,)
        assert ve_counters.max_table_size == 64


def test_criterion_3_switching_network_sizes():
    """After removing the shared outside-temperature variable: 24 entries of
    contextual factors, 72 for the grouped control, 128 for the dense table."""
    with timed(1.0):
        net = hvac_network()
        cat = net.catalog
        ot = cat.index("ot")

        cve_engine = ContextualVE(net)
        cve_engine.order = [ot]
        cve_engine.begin()
        cve_engine.eliminate(ot)
        assert elimination_for(cve_engine.counters, ot).size == 24

        tve_engine = TreeVE(net)
        tve_engine.order = [ot]
        tve_engine.begin()
        tve_engine.eliminate(ot)
        assert elimination_for(tve_engine.counters, ot).size == 72

        ve_engine = TabularVE(net)
        ve_engine.order = [ot]
        ve_engine.begin()
        ve_engine.eliminate(ot)
        assert max(elimination_for(ve_engine.counters, ot).created) == 128


def test_criterion_4_lazy_multiplication_counts():
    """The three engines' multiplication totals on the wide-domain switching
    network: contextual within 10% of 20000, grouped and dense within 10% of
    16000, and the lazy-multiplication penalty between 3900 and 4100."""
    with timed(5.0):
        net = wide_network()
        cat = net.catalog
        obs = ctx(cat, "t=true")
        order = [cat.index(n) for n in ["a", "b", "c"]]
        totals = {}
        for name, Engine in [("ve", TabularVE), ("cve", ContextualVE), ("tve", TreeVE)]:
            engine = Engine(net)
            engine.order = order
            engine.begin(obs)
            for y in order:
                engine.eliminate(y)
            totals[name] = engine.counters.multiplications
        assert totals["cve"] == pytest.approx(20000, rel=0.10)
        assert totals["tve"] == pytest.approx(16000, rel=0.10)
        assert totals["ve"] == pytest.approx(16000, rel=0.10)
        assert 3900 <= totals["cve"] - totals["tve"] <= 4100


def test_criterion_5_multiplication_order_policies():
    """Saving intermediates left-to-right, right-to-left, and recomputing
    everything cost exactly 12000, 8008 and 16000 multiplications, counted
    by ``product``; ``multiply_all``, the fold of every bucket, takes the
    8008 order."""
    with timed(2.0):
        cat = DomainCatalog(
            [("a", tuple(f"v{i}" for i in range(1000)))]
            + [(n, ("true", "false")) for n in ["b", "c", "d"]]
        )
        rng = SplitMix64(3)

        def cpt(vars):
            shape = cat.shape(vars)
            arr = np.array(
                [rng.uniform() for _ in range(int(np.prod(shape)))]
            ).reshape(shape)
            return Table(vars, arr / arr.sum(axis=len(vars) - 1, keepdims=True))

        p_ba, p_cb, p_db = cpt((0, 1)), cpt((1, 2)), cpt((1, 3))

        def mults(fold):
            counters = CostCounters()
            return fold(counters), counters.multiplications

        _, left = mults(lambda k: product(product(p_ba, p_cb, k), p_db, k))
        final, right = mults(lambda k: product(product(p_db, p_cb, k), p_ba, k))
        _, bucket = mults(lambda k: multiply_all([p_ba, p_cb, p_db], k))
        assert left == 12000
        assert right == 8008
        assert (3 - 1) * final.size == 16000  # recompute every partial product
        assert bucket == 8008  # every bucket's fold saves the cheap intermediate


def test_criterion_6_engine_equivalence_property():
    """200 random contextual networks, random evidence and query: all four
    answer paths agree pairwise within 1e-9, and five random elimination
    orders leave the answers unchanged."""
    with timed(60.0):
        rng = SplitMix64(20240601)
        for case in range(200):
            n = 4 + rng.below(7)          # 4..10
            s = rng.below(7)              # 0..6
            p = 0.2 if rng.below(2) == 0 else 0.5
            net = generate_random_cbn(GenConfig(n=n, s=s, p=p, seed=case))
            cat = net.catalog
            query = rng.below(n)
            k_obs = rng.below(4)
            observed = []
            while len(observed) < min(k_obs, n - 1):
                v = rng.below(n)
                if v != query and v not in observed:
                    observed.append(v)
            obs = Context([(v, rng.below(2)) for v in sorted(observed)])

            oracle = enum_query(net, [query], obs)
            posteriors = {
                "ve": ve_query(net, [query], obs)[0],
                "cve": cve_query(net, [query], obs)[0],
                "tve": tve_query(net, [query], obs)[0],
            }
            for name, post in posteriors.items():
                assert oracle.max_abs_diff(post) < 1e-9, (case, name)
            names = list(posteriors)
            for i in range(len(names)):
                for j in range(i + 1, len(names)):
                    assert posteriors[names[i]].max_abs_diff(posteriors[names[j]]) < 1e-9

            free = [v for v in range(n) if v != query and v not in obs]
            for _ in range(5):
                order = list(free)
                for i in range(len(order) - 1, 0, -1):
                    j = rng.below(i + 1)
                    order[i], order[j] = order[j], order[i]
                shuffled, _ = cve_query(net, [query], obs, order=order)
                assert oracle.max_abs_diff(shuffled) < 1e-9, (case, order)


def test_criterion_7_split_piece_count_property():
    """1000 random confactor/context pairs over mixed domains of size 2-4:
    the residual count equals the sum of (domain-1) over the fresh variables
    for every split order tried, each order one ``split_on_context`` call
    per variable (``conftest.residual``)."""
    with timed(5.0):
        rng = SplitMix64(777)
        for trial in range(1000):
            sizes = [2 + rng.below(3) for _ in range(5)]
            cat = DomainCatalog(
                [(f"v{i}", tuple(str(k) for k in range(s))) for i, s in enumerate(sizes)]
            )
            ids = list(range(5))
            body_vars = [v for v in ids if rng.below(3) == 0]
            free = [v for v in ids if v not in body_vars]
            if not free:
                body_vars = body_vars[:-1]
                free = [v for v in ids if v not in body_vars]
            t_vars = tuple(free[: 1 + rng.below(2)])
            shape = 1
            for v in t_vars:
                shape *= cat.size(v)
            r = Confactor(
                Context([(v, rng.below(cat.size(v))) for v in body_vars]),
                cat.table(t_vars, [rng.uniform() for _ in range(shape)]),
            )
            c_vars = [v for v in ids if rng.below(2) == 0]
            target = Context(
                [
                    (v, r.body.get(v) if v in r.body else rng.below(cat.size(v)))
                    for v in c_vars
                ]
            )
            expected = count_split_pieces(cat, r, target)
            new_vars = [v for v in target.vars() if v not in r.body]
            orders = [list(new_vars), list(reversed(new_vars))]
            for _ in range(3):
                shuffled = list(new_vars)
                for i in range(len(shuffled) - 1, 0, -1):
                    j = rng.below(i + 1)
                    shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
                orders.append(shuffled)
            for order in orders:
                pieces = residual(cat, r, target, order=order)
                assert len(pieces) == expected


def test_criterion_8_compression():
    """The dense 32-entry conditional compresses to the four known contexts
    with total size 12 and exact expansion; a 0.04-gap table under a 0.03
    threshold stays dense."""
    with timed(1.0):
        net = tree_network()
        cat = net.catalog
        e = cat.index("e")
        dense = net.tabular_factor(e)
        fam, _ = compress_family(cat, e, dense)
        assert [r.body for r in fam] == [
            ctx(cat, "a=true"),
            ctx(cat, "a=false,c=true"),
            ctx(cat, "a=false,c=false,d=true"),
            ctx(cat, "a=false,c=false,d=false"),
        ]
        assert sum(r.size for r in fam) == 12
        # expansion is exact: only equal entries were merged
        from ctxve import ContextualBeliefNetwork

        rebuilt = ContextualBeliefNetwork(
            cat, [fam if x == e else list(f) for x, f in enumerate(net.families)]
        )
        np.testing.assert_allclose(rebuilt.tabular_factor(e).array, dense.array, atol=0)

        gap_cat = DomainCatalog(
            [("p", ("0", "1")), ("q", ("0", "1")), ("x", ("0", "1"))]
        )
        base = np.array([[0.30, 0.34], [0.38, 0.42]])
        arr = np.stack([base, 1 - base], axis=-1)
        fam, _ = compress_family(
            gap_cat, 2, Table((0, 1, 2), arr), CompressionConfig(threshold=0.03)
        )
        assert len(fam) == 1
        assert fam[0].body == Context()
        assert fam[0].table.size == 8


def test_criterion_9_biased_campaign():
    """Thirty-variable biased-generator campaign, twenty seeds, 0/5/10
    observations: engines agree on every row, the contextual engine's
    per-elimination size beats the dense engine's largest table on at least
    70% of rows, and the CSV is deterministic per seed (time aside)."""
    with timed(600.0):
        nets = [
            (f"biased-{seed}", generate_biased_cbn(GenConfig(n=30, s=15, p=0.2, seed=seed)))
            for seed in range(20)
        ]
        records, csv = run_campaign(
            nets, queries_per_net=1, obs_counts=(0, 5, 10), seed=123,
            engines=("ve", "cve", "tve"),
        )
        by_row: dict = {}
        for rec in records:
            assert rec.error is None, rec
            by_row.setdefault((rec.network, rec.query, rec.evidence), {})[
                rec.engine
            ] = rec
        assert len(by_row) == 60
        dominated = sum(
            1
            for engines in by_row.values()
            if engines["cve"].max_elim <= engines["ve"].max_table
        )
        assert dominated >= 0.70 * len(by_row)
        for engines in by_row.values():
            # the contextual representation never exceeds the dense one
            assert engines["cve"].total_size <= engines["ve"].total_size

        _, csv_again = run_campaign(
            nets, queries_per_net=1, obs_counts=(0, 5, 10), seed=123,
            engines=("ve", "cve", "tve"),
        )

        def strip_time(doc):
            rows = []
            for line in doc.strip().split("\n"):
                cells = line.split(",")
                if len(cells) > 4:
                    cells[4] = ""
                rows.append(",".join(cells))
            return rows

        assert strip_time(csv) == strip_time(csv_again)
