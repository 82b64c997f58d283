"""Structure discovery and synthesis: CPT compression into contextual
families, and randomized contextual-network generators.

Compression runs a greedy top-down tree build over a dense conditional
table: at each node, parents whose value blocks stay within a threshold are
collapsed to midpoints, then the node splits on the parent that keeps the
most within-threshold entry pairs together, until nothing is left to merge.
The contextual form is only adopted when it is genuinely smaller than the
dense table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .confactor import Confactor
from .network import ContextualBeliefNetwork
from .rng import SplitMix64
from .tables import Context, DomainCatalog, Table, VariableId, set_table


@dataclass
class CompressionConfig:
    """Entries closer than ``threshold`` may be merged; the contextual form
    is kept only when its total size is below ``accept_ratio`` times the
    dense size."""

    threshold: float = 0.05
    accept_ratio: float = 0.51

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        if not 0.0 < self.accept_ratio <= 1.0:
            raise ValueError("accept_ratio must be in (0, 1]")


@dataclass
class GenConfig:
    """Random-network parameters: ``n`` binary variables, ``s`` context
    splits (giving n+s confactors), and per-variable probability ``p`` of a
    free predecessor joining a table."""

    n: int
    s: int = 0
    p: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.s < 0:
            raise ValueError("s must be non-negative")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")


def redundant_variables(
    table: Table, child: VariableId, cfg: Optional[CompressionConfig] = None
) -> set[VariableId]:
    """Parents whose value never moves an entry by ``threshold`` or more.

    A parent is redundant when, for every fixed assignment of the other
    parents and every child value, all entries along its axis differ by
    strictly less than the threshold.
    """
    cfg = cfg or CompressionConfig()
    out = set()
    for v in table.vars:
        if v == child:
            continue
        axis = table.vars.index(v)
        spread = table.array.max(axis=axis) - table.array.min(axis=axis)
        if float(spread.max(initial=0.0)) < cfg.threshold:
            out.add(v)
    return out


def _collapse_redundant(
    table: Table, child: VariableId, cfg: CompressionConfig
) -> Table:
    """Remove redundant parents, replacing each collapsed block by its
    midpoint.

    Parents are admitted greedily in one pass; a candidate only joins when
    the joint block over all parents removed so far still spans less than
    the threshold, so every original entry stays within threshold/2 of the
    midpoint that replaces it.  A block's spread only grows as axes join
    it, so a parent rejected once would be rejected again.
    """
    removed: list[int] = []

    def block_ok(vs: list[int]) -> bool:
        axes = tuple(sorted(table.vars.index(u) for u in vs))
        spread = table.array.max(axis=axes) - table.array.min(axis=axes)
        return float(np.max(spread, initial=0.0)) < cfg.threshold

    for v in table.vars:
        if v != child and block_ok(removed + [v]):
            removed.append(v)
    if not removed:
        return table
    axes = tuple(sorted(table.vars.index(u) for u in removed))
    mid = (table.array.max(axis=axes) + table.array.min(axis=axes)) / 2.0
    return Table(tuple(v for v in table.vars if v not in removed), mid)


def _split_score(table: Table, child: VariableId, v: VariableId, threshold: float) -> int:
    """Within-threshold entry pairs kept together by splitting on ``v``:
    summed over its branches and the child values, the number of unordered
    pairs of remaining-parent assignments whose entries differ by less than
    the threshold."""
    others = [x for x in table.vars if x not in (v, child)]
    axis_v = table.vars.index(v)
    axis_c = table.vars.index(child)
    # rows: branches x child values x other-parent assignments
    order = [axis_v, axis_c] + [table.vars.index(x) for x in others]
    arr = np.transpose(table.array, order)
    arr = arr.reshape(arr.shape[0], arr.shape[1], -1)
    score = 0
    for branch in range(arr.shape[0]):
        for cval in range(arr.shape[1]):
            row = arr[branch, cval]
            diff = np.abs(row[:, None] - row[None, :]) < threshold
            score += (int(diff.sum()) - len(row)) // 2
    return score


def compress_family(
    catalog: DomainCatalog,
    x: VariableId,
    parents: Sequence[VariableId],
    table: Table,
    cfg: Optional[CompressionConfig] = None,
) -> tuple[list[Confactor], float]:
    """Compress one conditional table into a contextual family.

    Returns the family together with the largest pre-normalization
    deviation of a leaf's child distribution from summing to one.  When the
    tree buys nothing (total leaf size is not below ``accept_ratio`` times
    the dense size), the single-confactor dense family is returned instead.
    """
    cfg = cfg or CompressionConfig()
    expected = set(parents) | {x}
    if set(table.vars) != expected:
        raise ValueError("table must range over the parents plus the child")
    leaves: list[tuple[Context, Table]] = []

    def build(node: Table, body: Context) -> None:
        node = _collapse_redundant(node, x, cfg)
        live = [v for v in node.vars if v != x]
        if live:
            scores = {v: _split_score(node, x, v, cfg.threshold) for v in live}
            best = min(live, key=lambda v: (-scores[v], v))
            if scores[best] > 0:
                for val in range(catalog.size(best)):
                    build(
                        set_table(node, Context([(best, val)])),
                        body.with_assignment(best, val),
                    )
                return
        leaves.append((body, node))

    build(table, Context())
    total = sum(t.size for _, t in leaves)
    residual = 0.0
    if total < cfg.accept_ratio * table.size:
        family = []
        for body, leaf in leaves:
            axis = leaf.vars.index(x)
            sums = leaf.array.sum(axis=axis, keepdims=True)
            residual = max(residual, float(np.abs(sums - 1.0).max(initial=0.0)))
            family.append(Confactor(body, Table(leaf.vars, leaf.array / sums)))
        return family, residual
    return [Confactor(Context(), table)], 0.0


def compress_network(
    net: ContextualBeliefNetwork, cfg: Optional[CompressionConfig] = None
) -> tuple[ContextualBeliefNetwork, list[dict]]:
    """Compress every family of a network; report per-family sizes and
    pre-normalization residuals."""
    cfg = cfg or CompressionConfig()
    families = []
    report = []
    for x in range(net.n_vars()):
        dense = net.tabular_factor(x)
        parents = [v for v in dense.vars if v != x]
        fam, residual = compress_family(net.catalog, x, parents, dense, cfg)
        families.append(fam)
        report.append(
            {
                "variable": net.catalog.names[x],
                "tabular_size": dense.size,
                "compressed_size": sum(r.size for r in fam),
                "confactors": len(fam),
                "residual": residual,
            }
        )
    return ContextualBeliefNetwork(net.catalog, families), report


def _binary_catalog(n: int) -> DomainCatalog:
    return DomainCatalog([(f"x{i + 1}", ("true", "false")) for i in range(n)])


def _leaf_confactor(
    catalog: DomainCatalog,
    body: Context,
    child: VariableId,
    p: float,
    rng: SplitMix64,
) -> Confactor:
    vars = []
    for j in range(child):
        if j not in body and rng.uniform() < p:
            vars.append(j)
    vars.append(child)
    shape = catalog.shape(vars)
    flat = np.array([rng.uniform() for _ in range(math.prod(shape))])
    arr = flat.reshape(shape)
    axis = vars.index(child)
    arr = arr / arr.sum(axis=axis, keepdims=True)
    return Confactor(body, Table(tuple(vars), arr))


def _generate(cfg: GenConfig, biased: bool) -> ContextualBeliefNetwork:
    rng = SplitMix64(cfg.seed)
    n = cfg.n
    catalog = _binary_catalog(n)
    leaves: list[tuple[Context, int]] = [(Context(), i) for i in range(n)]
    target = n + cfg.s
    attempts = 0
    max_attempts = 10000 * max(target, 1)
    while len(leaves) < target:
        attempts += 1
        if attempts > max_attempts:
            raise ValueError("split budget cannot be met for these parameters")
        pick = rng.below(len(leaves))
        body, child = leaves[pick]
        j = rng.below(n - 1) if n > 1 else 0
        if n <= 1 or j >= child or j in body:
            continue
        split_var = j
        if biased:
            used = {
                v
                for k, (other, _) in enumerate(leaves)
                if k != pick
                for v in other.vars()
            }
            usable = [k for k in range(child) if k not in body and k in used]
            if usable:
                split_var = usable[rng.below(len(usable))]
        leaves[pick : pick + 1] = [
            (body.with_assignment(split_var, 0), child),
            (body.with_assignment(split_var, 1), child),
        ]
    families: list[list[Confactor]] = [[] for _ in range(n)]
    for body, child in leaves:
        families[child].append(_leaf_confactor(catalog, body, child, cfg.p, rng))
    return ContextualBeliefNetwork(catalog, families)


def generate_random_cbn(cfg: GenConfig) -> ContextualBeliefNetwork:
    """Random binary contextual network: start from one empty-context leaf
    per variable, split random leaves on random earlier variables until
    there are n+s leaves, then fill each leaf's table with normalized
    uniform values, letting each free predecessor join with probability p."""
    return _generate(cfg, biased=False)


def generate_biased_cbn(cfg: GenConfig) -> ContextualBeliefNetwork:
    """Like :func:`generate_random_cbn`, but when a leaf is about to split,
    a variable already used in some other leaf's context is preferred
    (chosen uniformly among the usable ones); otherwise the unbiased choice
    stands."""
    return _generate(cfg, biased=True)
