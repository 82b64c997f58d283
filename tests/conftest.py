"""Shared fixtures: small reference networks and brute-force helpers."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from ctxve import (
    ENGINES,
    Confactor,
    Context,
    ContextualBeliefNetwork,
    CostCounters,
    DomainCatalog,
    EliminationRecord,
    Engine,
    GroupedFactor,
    SplitMix64,
    Table,
    enum_query,
    from_skeleton,
    from_tabular_cpt,
    split_on_context,
)

BOOL = ("true", "false")
T, F = 0, 1


def ctx(catalog: DomainCatalog, text: str) -> Context:
    return catalog.parse_context(text)


def table(catalog: DomainCatalog, names: list[str], values) -> Table:
    vars = tuple(catalog.index(n) for n in names)
    return catalog.table(vars, values)


def lookup(t: Table, assignment) -> float:
    """Entry of ``t`` at a full assignment of its variables."""
    return float(t.array[tuple(assignment[v] for v in t.vars)])


def elimination_for(counters: CostCounters, variable: int) -> EliminationRecord:
    """The record of ``variable``'s elimination in ``counters``."""
    for rec in counters.eliminations:
        if rec.variable == variable:
            return rec
    raise KeyError(f"no elimination recorded for variable {variable}")


def residual(catalog: DomainCatalog, r: Confactor, c: Context, counters=None, order=None):
    """The split pieces of ``r`` whose bodies conflict with ``c``, as
    confactors: one :func:`split_on_context` call on ``c``, or, given an
    ``order`` of the variables ``c`` adds to the body, one call per variable,
    each on the piece the last call kept."""
    steps = [c] if order is None else [Context([(v, c.get(v))]) for v in order]
    body, tables, pieces = r.body, [r.table], []
    for step in steps:
        residuals, (body, tables) = split_on_context(catalog, body, tables, step, counters)
        pieces += residuals
    return [Confactor(b, t, r.for_vars, r.pure_for) for b, (t,) in pieces]


def tree_catalog() -> DomainCatalog:
    return DomainCatalog([(n, BOOL) for n in ["y", "z", "a", "b", "c", "d", "e"]])


def tree_network() -> ContextualBeliefNetwork:
    """Seven binary variables; b, d and e have tree-structured conditionals.

    The dense conditional for e (16 parent rows) collapses to four
    confactors with bodies {a}, {a=f,c}, {a=f,c=f,d}, {a=f,c=f,d=f}.
    """
    cat = tree_catalog()

    def conf(body: str, names: list[str], values) -> Confactor:
        return Confactor(ctx(cat, body), table(cat, names, values))

    families = [
        [conf("", ["y"], [0.6, 0.4])],
        [conf("", ["z"], [0.35, 0.65])],
        [conf("", ["y", "z", "a"], [0.9, 0.1, 0.25, 0.75, 0.4, 0.6, 0.7, 0.3])],
        [
            conf("y=true", ["b", "z"], [0.77, 0.17, 0.23, 0.83]),
            conf("y=false", ["b"], [0.27, 0.73]),
        ],
        [conf("", ["y", "z", "c"], [0.2, 0.8, 0.55, 0.45, 0.6, 0.4, 0.3, 0.7])],
        [
            conf("z=true", ["d"], [0.29, 0.71]),
            conf("z=false", ["d", "y"], [0.79, 0.59, 0.21, 0.41]),
        ],
        [
            conf("a=true", ["b", "e"], [0.55, 0.45, 0.3, 0.7]),
            conf("a=false,c=true", ["e"], [0.08, 0.92]),
            conf("a=false,c=false,d=true", ["b", "e"], [0.025, 0.975, 0.85, 0.15]),
            conf("a=false,c=false,d=false", ["e"], [0.5, 0.5]),
        ],
    ]
    return ContextualBeliefNetwork(cat, families)


def dense_e_rows() -> dict[tuple[int, int, int, int], float]:
    """P(e=true | a, b, c, d) for all sixteen parent rows."""
    rows = {}
    for a, b, c, d in itertools.product((T, F), repeat=4):
        if a == T:
            p = 0.55 if b == T else 0.3
        elif c == T:
            p = 0.08
        elif d == T:
            p = 0.025 if b == T else 0.85
        else:
            p = 0.5
        rows[(a, b, c, d)] = p
    return rows


def hvac_catalog() -> DomainCatalog:
    names = ["fb", "ft", "mb", "mt", "s", "ot", "fh", "mh"]
    return DomainCatalog([(n, BOOL) for n in names])


HVAC_P = dict(
    p1=0.9, p2=0.3, p3=0.8, p4=0.2, p5=0.85,
    p6=0.25, p7=0.75, p8=0.15, p9=0.65, p10=0.35,
)


def hvac_network() -> ContextualBeliefNetwork:
    """Two houses whose inside temperature depends on the outside only when
    the air conditioning is broken; the houses couple only through ot."""
    cat = hvac_catalog()
    p = HVAC_P

    def conf(body: str, names: list[str], values) -> Confactor:
        return Confactor(ctx(cat, body), table(cat, names, values))

    def binary(p_true: float) -> list[float]:
        return [p_true, 1.0 - p_true]

    families = [
        [conf("", ["fb"], binary(0.3))],
        [conf("", ["ft"], binary(0.55))],
        [conf("", ["mb"], binary(0.4))],
        [conf("", ["mt"], binary(0.45))],
        [conf("", ["s"], binary(0.5))],
        [
            conf(
                "",
                ["s", "ot"],
                [p["p9"], 1 - p["p9"], p["p10"], 1 - p["p10"]],
            )
        ],
        [
            conf("fb=true", ["ot", "fh"], [p["p1"], 1 - p["p1"], p["p2"], 1 - p["p2"]]),
            conf("fb=false", ["ft", "fh"], [p["p3"], 1 - p["p3"], p["p4"], 1 - p["p4"]]),
        ],
        [
            conf("mb=true", ["ot", "mh"], [p["p5"], 1 - p["p5"], p["p6"], 1 - p["p6"]]),
            conf("mb=false", ["mt", "mh"], [p["p7"], 1 - p["p7"], p["p8"], 1 - p["p8"]]),
        ],
    ]
    return ContextualBeliefNetwork(cat, families)


def wide_catalog(w_size: int = 1000) -> DomainCatalog:
    entries = [("w", tuple(f"v{i}" for i in range(w_size)))]
    entries += [(n, BOOL) for n in ["x", "a", "b", "c", "s", "t"]]
    return DomainCatalog(entries)


def wide_network(w_size: int = 1000, seed: int = 7) -> ContextualBeliefNetwork:
    """One huge-domain root feeding a small chain; s and t switch their
    parent sets on x."""
    cat = wide_catalog(w_size)
    rng = SplitMix64(seed)

    def rand_cpt(names: list[str]) -> Table:
        vars = tuple(cat.index(n) for n in names)
        shape = cat.shape(vars)
        arr = np.array([0.1 + rng.uniform() for _ in range(int(np.prod(shape)))])
        arr = arr.reshape(shape)
        arr = arr / arr.sum(axis=len(shape) - 1, keepdims=True)
        return Table(vars, arr)

    def conf(body: str, t: Table) -> Confactor:
        return Confactor(ctx(cat, body), t)

    families = [
        [conf("", rand_cpt(["w"]))],
        [conf("", rand_cpt(["x"]))],
        [conf("", rand_cpt(["a"]))],
        [conf("", rand_cpt(["w", "b"]))],
        [conf("", rand_cpt(["b", "c"]))],
        [
            conf("x=true", rand_cpt(["a", "b", "c", "s"])),
            conf("x=false", rand_cpt(["b", "c", "s"])),
        ],
        [
            conf("x=true", rand_cpt(["a", "b", "c", "t"])),
            conf("x=false", rand_cpt(["c", "t"])),
        ],
    ]
    return ContextualBeliefNetwork(cat, families)


def binary_hmm(steps: int, c_prior=None) -> ContextualBeliefNetwork:
    """A binary HMM of ``steps`` steps with variables h1, e1, h2, e2, ...

    Built from public constructors, one dense CPT per family: a uniform
    prior on h1, 0.99 on the diagonal of every transition and 0.9 on the
    diagonal of every emission.  Given ``c_prior``, a last binary variable
    c with that prior is declared, independent of the chain.
    """
    names = [n for t in range(1, steps + 1) for n in (f"h{t}", f"e{t}")]
    if c_prior is not None:
        names.append("c")
    cat = DomainCatalog([(n, ("0", "1")) for n in names])
    trans = np.array([[0.99, 0.01], [0.01, 0.99]])
    sense = np.array([[0.9, 0.1], [0.1, 0.9]])
    families = []
    for t in range(steps):
        h, e = 2 * t, 2 * t + 1
        if t == 0:
            families.append(from_tabular_cpt(cat, h, [], Table((h,), np.array([0.5, 0.5]))))
        else:
            families.append(from_tabular_cpt(cat, h, [h - 2], Table((h - 2, h), trans)))
        families.append(from_tabular_cpt(cat, e, [h], Table((h, e), sense)))
    if c_prior is not None:
        c = 2 * steps
        families.append(from_tabular_cpt(cat, c, [], Table((c,), np.array(c_prior))))
    return ContextualBeliefNetwork(cat, families)


def alternating_emissions(steps: int) -> Context:
    """Evidence 0, 1, 0, 1, ... on the emissions e1, e2, ... of :func:`binary_hmm`."""
    return Context([(2 * t + 1, t % 2) for t in range(steps)])


def contextual_mixed_network(seed: int, n: int = 9) -> ContextualBeliefNetwork:
    """Domains of 2, 3 and 4 values; each variable has up to three earlier
    parents and may split on one of them, keeping a random subset of the
    others in each context's table."""
    rng = SplitMix64(seed)
    sizes = [2 + rng.below(3) for _ in range(n)]
    cat = DomainCatalog([(f"x{i}", tuple(f"k{j}" for j in range(s))) for i, s in enumerate(sizes)])

    def cpt(vars):
        arr = np.array([0.05 + rng.uniform() for _ in range(int(np.prod(cat.shape(vars))))])
        arr = arr.reshape(cat.shape(vars))
        return Table(vars, arr / arr.sum(axis=len(vars) - 1, keepdims=True))

    families = []
    for x in range(n):
        parents = sorted({rng.below(x) for _ in range(rng.below(4))}) if x else []
        if parents and rng.below(3):
            c = parents[rng.below(len(parents))]
            others = [v for v in parents if v != c]
            pairs = [
                (Context([(c, val)]), [v for v in others if rng.below(2)])
                for val in range(sizes[c])
            ]
        else:
            pairs = [(Context(), parents)]
        families.append(from_skeleton(cat, x, [(c, cpt((*vs, x))) for c, vs in pairs]))
    return ContextualBeliefNetwork(cat, families)


def random_evidence(net, rng, query):
    """Each variable but ``query`` observed with probability 1/4, at a
    random value."""
    return Context(
        (v, rng.below(net.catalog.size(v)))
        for v in range(net.n_vars())
        if v != query and rng.below(4) == 0
    )


def brute_posterior(net: ContextualBeliefNetwork, query, obs=None) -> np.ndarray:
    """Posterior over the query variables by explicit enumeration of every
    full assignment, straight from the per-family conditional values."""
    cat = net.catalog
    obs = obs or Context()
    query = tuple(sorted(query))
    out = np.zeros(cat.shape(query))
    n = net.n_vars()
    for combo in itertools.product(*(range(cat.size(v)) for v in range(n))):
        if any(combo[v] != val for v, val in obs.items()):
            continue
        full = Context(list(enumerate(combo)))
        prob = 1.0
        for x in range(n):
            applicable = [
                r for r in net.families[x]
                if all(full.get(v) == val for v, val in r.body.items())
            ]
            assert len(applicable) == 1
            r = applicable[0]
            prob *= lookup(r.table, {v: combo[v] for v in r.table.vars})
        out[tuple(combo[v] for v in query)] += prob
    return out / out.sum()


def answer_paths():
    """Every answer path by name, as ``answer(net, query_vars, obs) -> Posterior``:
    each engine of ``ENGINES`` through ``Engine.query``, and ``enum``."""
    paths = {
        name: lambda net, query, obs, cls=cls: cls(net).query(query, obs)
        for name, cls in ENGINES.items()
    }
    paths["enum"] = enum_query
    return paths


class WholeSetSplit(Engine):
    """Reference elimination loop: each step splits the whole working set,
    in order, into ``y``'s bucket (the items that mention ``y``) and the
    rest, hands the bucket to ``step`` with the rest as the live set, and
    puts the created items after the rest.  Every step scans every item, so
    a query costs time quadratic in the network's size; ``Engine.eliminate``
    must give the same buckets in the same order.  ``items`` is a plain
    list here, not ``Engine``'s filed live set."""

    items = None

    def eliminate(self, y):
        bucket, rest = [], []
        for item in self.items:
            (bucket if y in item.vars else rest).append(item)
        self.live = {id(item): item for item in rest}
        created, created_sizes, step_size = self.step(y, bucket) if bucket else ([], (), 0)
        self.items = rest + created
        self.counters.record_elimination(y, created_sizes, step_size)


def whole_set_split(cls):
    """``cls`` running :class:`WholeSetSplit`'s loop.  The loop comes after
    ``cls`` in the method order, so an ``eliminate`` override of ``cls``
    (``cve``'s audit) still runs around it."""
    return type(f"WholeSetSplit{cls.__name__}", (cls, WholeSetSplit), {})


def fingerprint(item):
    """A hashable, bitwise description of a working-set item: a table, a
    confactor or a grouped factor."""
    if isinstance(item, Table):
        return item.vars, item.array.shape, item.array.tobytes()
    if isinstance(item, GroupedFactor):
        return item.vars, item.size, tuple(fingerprint(r) for r in item.members)
    return tuple(item.body.items()), fingerprint(item.table), item.for_vars, item.pure_for


def recording(cls):
    """``cls`` keeping, in ``trace``, the fingerprints of its working set
    after ``begin`` and after every elimination."""

    class Recording(cls):
        def begin(self, obs=None):
            self.trace = []
            super().begin(obs)
            self.trace.append([fingerprint(item) for item in self.items])

        def eliminate(self, y):
            super().eliminate(y)
            self.trace.append([fingerprint(item) for item in self.items])

    return Recording


def find_confactor(items, catalog, body_text):
    """The unique confactor in ``items`` whose body equals the given text."""
    target = ctx(catalog, body_text)
    hits = [r for r in items if r.body == target]
    assert len(hits) == 1, f"expected one confactor with body {body_text!r}, got {len(hits)}"
    return hits[0]


@pytest.fixture
def tree_net():
    return tree_network()


@pytest.fixture
def hvac_net():
    return hvac_network()


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else "FAIL"
    print(f"\nACCEPTANCE {name}: {status}")
