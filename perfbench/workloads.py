"""The benchmark's three seeded workloads and their reference answers.

Each workload's ``build`` is one set-up: it generates the networks,
round-trips each one through ``to_document``/``from_document`` with
validation, and lists the query rows.  Networks come back freshly loaded, so their dense-expansion
caches are empty and ``ve`` pays for the expansion on its first query of
each network, as a library caller does.

Seeding.  On the two generated workloads the network *structures* and the
query and observed *variables* are fixed by the workload definition; the
seed redraws every table entry and every observed value.  The work a query
does therefore depends on the seed only through the evidence values (which
decide, for ``cve`` and ``tve``, which contexts survive), so run-to-run
spread measures the code, not the draw: with structures drawn per seed the
summed ``ve`` time of the campaign moved by about 30% between seeds, far
beyond any useful regression bound.  Seed 0 keeps the generator's own
tables and values, so at seed 0 ``campaign-biased`` is exactly acceptance
criterion 9's campaign (network seeds 0-19, campaign seed 123).  On
``hmm-chain`` the structure is fixed by definition and the seed draws the
emission sequences and the queried steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ctxve import (
    ContextualBeliefNetwork,
    DomainCatalog,
    GenConfig,
    SplitMix64,
    Table,
    from_tabular_cpt,
    generate_biased_cbn,
)
from ctxve.bench import sample_queries
from ctxve.network import from_document, to_document
from ctxve.tables import Context

ROW_SEED = 123  # criterion 9's campaign seed; fixes the query and observed variables
HMM_STEPS = 100
HMM_STAY = 0.99
HMM_EMIT = 0.9
HMM_QUERIES = 50


@dataclass(frozen=True)
class Row:
    """One query: a network index, the query variable and the evidence."""

    net: int
    query: int
    obs: Context


@dataclass
class Instance:
    """A workload's networks (freshly loaded) and its query rows."""

    names: list[str]
    nets: list[ContextualBeliefNetwork]
    docs: list[dict]
    rows: list[Row]
    reference: Optional[Callable[[Row], np.ndarray]] = None

    def reload(self) -> list[ContextualBeliefNetwork]:
        """Another freshly loaded copy of the networks (empty caches)."""
        return [from_document(doc) for doc in self.docs]


@dataclass(frozen=True)
class Generated:
    """A set of biased-generator networks with uniformly sampled rows."""

    n: int
    s: int
    p: float
    nets: int
    queries_per_net: int
    obs_counts: tuple[int, ...]

    def build(self, seed: int, tracer) -> Instance:
        with tracer.span("structure.generate"):
            nets = [
                generate_biased_cbn(GenConfig(n=self.n, s=self.s, p=self.p, seed=k))
                for k in range(self.nets)
            ]
        row_rng = SplitMix64(ROW_SEED)
        rows = []
        for i, net in enumerate(nets):
            for query, obs in sample_queries(
                net, row_rng, self.queries_per_net, self.obs_counts
            ):
                rows.append(Row(i, query, obs))
        docs = [to_document(net) for net in nets]
        if seed != 0:
            value_rng = SplitMix64(seed)
            for doc in docs:
                _redraw_tables(doc, value_rng)
            rows = [
                Row(r.net, r.query, Context(
                    (v, value_rng.below(nets[r.net].catalog.size(v))) for v in r.obs.vars()
                ))
                for r in rows
            ]
        with tracer.span("network.from_document"):
            loaded = [from_document(doc) for doc in docs]
        names = [f"biased-{k}" for k in range(self.nets)]
        return Instance(names, loaded, docs, rows)


def _redraw_tables(doc: dict, rng: SplitMix64) -> None:
    """Replace every confactor table of a network document by fresh uniform
    draws normalized over the child, as the generator fills its leaves."""
    sizes = {v["name"]: len(v["values"]) for v in doc["variables"]}
    for family in doc["families"]:
        for entry in family["confactors"]:
            shape = [sizes[name] for name in entry["vars"]]
            arr = np.array([rng.uniform() for _ in range(math.prod(shape))])
            arr = arr.reshape(shape)
            axis = entry["vars"].index(family["child"])
            entry["table"] = (arr / arr.sum(axis=axis, keepdims=True)).ravel().tolist()


def _hmm_matrices() -> tuple[np.ndarray, np.ndarray]:
    """Transition and emission matrices, indexed [from, to] and [hidden, seen]."""
    stay = np.array([[HMM_STAY, 1 - HMM_STAY], [1 - HMM_STAY, HMM_STAY]])
    emit = np.array([[HMM_EMIT, 1 - HMM_EMIT], [1 - HMM_EMIT, HMM_EMIT]])
    return stay, emit


def hmm_network() -> ContextualBeliefNetwork:
    """A binary HMM of ``HMM_STEPS`` steps, variables h1, e1, h2, e2, ...

    Built from the public constructors: every family is one dense CPT.
    """
    names = []
    for t in range(1, HMM_STEPS + 1):
        names += [f"h{t}", f"e{t}"]
    catalog = DomainCatalog([(name, ("0", "1")) for name in names])
    stay, emit = _hmm_matrices()
    families = []
    for t in range(HMM_STEPS):
        h, e = 2 * t, 2 * t + 1
        if t == 0:
            families.append(from_tabular_cpt(catalog, h, [], Table((h,), np.array([0.5, 0.5]))))
        else:
            families.append(from_tabular_cpt(catalog, h, [h - 2], Table((h - 2, h), stay)))
        families.append(from_tabular_cpt(catalog, e, [h], Table((h, e), emit)))
    return ContextualBeliefNetwork(catalog, families)


def hmm_posterior(row: Row) -> np.ndarray:
    """P(h_q | every emission) by a scaled forward-backward pass; independent
    of the library's engines, for the correctness gate."""
    stay, emit = _hmm_matrices()
    ev = [row.obs.get(2 * t + 1) for t in range(HMM_STEPS)]
    step = row.query // 2
    alpha = np.array([0.5, 0.5]) * emit[:, ev[0]]
    alpha /= alpha.sum()
    for t in range(1, step + 1):
        alpha = (alpha @ stay) * emit[:, ev[t]]
        alpha /= alpha.sum()
    beta = np.ones(2)
    for t in range(HMM_STEPS - 1, step, -1):
        beta = stay @ (emit[:, ev[t]] * beta)
        beta /= beta.sum()
    post = alpha * beta
    return post / post.sum()


@dataclass(frozen=True)
class HmmChain:
    """One HMM; each query observes a sampled emission sequence and asks for
    a seeded hidden step."""

    queries: int = HMM_QUERIES

    def build(self, seed: int, tracer) -> Instance:
        with tracer.span("structure.generate"):
            net = hmm_network()
        doc = to_document(net)
        with tracer.span("network.from_document"):
            loaded = from_document(doc)
        rng = SplitMix64(seed)
        rows = []
        for _ in range(self.queries):
            h = rng.below(2)
            obs = []
            for t in range(HMM_STEPS):
                if t and rng.uniform() >= HMM_STAY:
                    h = 1 - h
                e = h if rng.uniform() < HMM_EMIT else 1 - h
                obs.append((2 * t + 1, e))
            rows.append(Row(0, 2 * rng.below(HMM_STEPS), Context(obs)))
        return Instance(["hmm-100"], [loaded], [doc], rows, reference=hmm_posterior)


WORKLOADS = {
    "campaign-biased": Generated(n=30, s=15, p=0.2, nets=20, queries_per_net=1, obs_counts=(0, 5, 10)),
    "ctx-small": Generated(n=20, s=40, p=0.0, nets=120, queries_per_net=3, obs_counts=(0, 5, 10)),
    "hmm-chain": HmmChain(),
}
