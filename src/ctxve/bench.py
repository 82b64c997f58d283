"""Enumeration oracle, benchmark campaigns and their CSV output.

The oracle computes posteriors straight from the joint factorization, with
no elimination at all; every engine is differentially tested against it and
against the others on each campaign row.
"""

from __future__ import annotations

import io
import itertools
import math
import time
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .counters import CostCounters
from .engine_cve import ContextualVE
from .engine_tve import TreeVE
from .engine_ve import TabularVE
from .errors import InvariantError, ZeroEvidenceError
from .network import ContextualBeliefNetwork, joint_table
from .orders import Engine, check_query
from .posterior import Posterior, normalize_posterior
from .rng import SplitMix64
from .tables import Context, VariableId, sum_out

CSV_HEADER = (
    "network,query,evidence,engine,time_ms,mults,adds,splits,"
    "max_table,max_elim,total_size"
)

ENUM_CAP = 1 << 22

# Timed runs per campaign cell; the fastest is reported.
REPLICATES = 3

# The elimination engines by name; ``enum`` is the oracle, not an engine.
ENGINES: dict[str, type[Engine]] = {"ve": TabularVE, "cve": ContextualVE, "tve": TreeVE}


def enum_query(
    net: ContextualBeliefNetwork,
    query_vars: Sequence[VariableId],
    obs: Optional[Context] = None,
    cap: int = ENUM_CAP,
) -> Posterior:
    """Posterior by summing the evidence-weighted joint over all completions."""
    obs = obs or Context()
    query = check_query(net, query_vars, obs)
    joint = joint_table(net, obs, cap=cap)
    table = joint
    for v in joint.vars:
        if v not in query:
            table = sum_out(table, v)
    return normalize_posterior(table, query, net.catalog)


@dataclass
class BenchRecord:
    network: str
    query: str
    evidence: str
    engine: str
    time_ms: float = 0.0
    mults: int = 0
    adds: int = 0
    splits: int = 0
    max_table: int = 0
    max_elim: int = 0
    total_size: int = 0
    error: Optional[str] = None

    def csv_row(self) -> str:
        if self.error is not None:
            tail = ",".join(["error"] * 7)
            return f"{self.network},{self.query},{self.evidence},{self.engine},{tail}"
        return (
            f"{self.network},{self.query},{self.evidence},{self.engine},"
            f"{self.time_ms:.3f},{self.mults},{self.adds},{self.splits},"
            f"{self.max_table},{self.max_elim},{self.total_size}"
        )


def sample_queries(
    net: ContextualBeliefNetwork,
    rng: SplitMix64,
    queries_per_net: int,
    obs_counts: Sequence[int],
) -> list[tuple[VariableId, Context]]:
    """Uniformly sampled (query variable, observation) rows for one network."""
    n = net.n_vars()
    rows = []
    for count in obs_counts:
        if count >= n:
            raise ValueError("cannot observe that many variables")
        for _ in range(queries_per_net):
            query = rng.below(n)
            observed: list[int] = []
            while len(observed) < count:
                v = rng.below(n)
                if v != query and v not in observed:
                    observed.append(v)
            items = [(v, rng.below(net.catalog.size(v))) for v in sorted(observed)]
            rows.append((query, Context(items)))
    return rows


def check_row(answers: Mapping[str, tuple[Posterior, CostCounters]], where: str) -> None:
    """The control on one campaign row, given each engine's (posterior,
    counters): raise :class:`InvariantError`, naming ``where``, if two
    engines' posteriors differ by more than 1e-9 or ``tve`` multiplies more
    than ``ve``."""
    for a, b in itertools.combinations(sorted(answers), 2):
        diff = answers[a][0].max_abs_diff(answers[b][0])
        if diff > 1e-9:
            raise InvariantError(f"engines {a} and {b} disagree by {diff:.3e} on {where}")
    if "ve" in answers and "tve" in answers:
        if answers["tve"][1].multiplications > answers["ve"][1].multiplications:
            raise InvariantError(
                f"tree engine multiplied more than the tabular engine on {where}"
            )


def run_campaign(
    nets: Sequence[tuple[str, ContextualBeliefNetwork]],
    queries_per_net: int = 1,
    obs_counts: Sequence[int] = (0, 5, 10),
    seed: int = 0,
    engines: Sequence[str] = ("ve", "cve", "tve"),
) -> tuple[list[BenchRecord], str]:
    """Run every engine on uniformly sampled queries over the given networks.

    Each (network, query, engine) cell is evaluated :data:`REPLICATES` times
    and the smallest runtime is reported.  Every row must pass
    :func:`check_row`; an engine raising an error yields an error row and
    the campaign continues.  Returns the records plus the CSV document
    (deterministic for a fixed seed, apart from the time_ms column).
    """
    if not engines:
        raise ValueError("no engines to run")
    unknown = [name for name in engines if name not in ENGINES]
    if unknown:
        raise ValueError(f"unknown engines: {unknown}")
    repeated = sorted({name for name in engines if engines.count(name) > 1})
    if repeated:
        raise ValueError(f"repeated engines: {repeated}")
    if queries_per_net < 1:
        raise ValueError(f"queries per network must be at least 1, got {queries_per_net}")
    if not obs_counts:
        raise ValueError("no observation counts to run")
    if any(k < 0 for k in obs_counts):
        raise ValueError(f"observation counts must be non-negative, got {list(obs_counts)}")
    rng = SplitMix64(seed)
    records: list[BenchRecord] = []
    for net_id, net in nets:
        cat = net.catalog
        for query, obs in sample_queries(net, rng, queries_per_net, obs_counts):
            row = (
                net_id,
                cat.names[query],
                ";".join(f"{cat.names[v]}={cat.domains[v][val]}" for v, val in obs.items()),
            )
            answers: dict[str, tuple[Posterior, CostCounters]] = {}
            for name in engines:
                best_ms = math.inf
                try:
                    for _ in range(REPLICATES):
                        start = time.perf_counter()
                        answer = ENGINES[name].answer(net, [query], obs)
                        best_ms = min(best_ms, (time.perf_counter() - start) * 1000.0)
                except Exception as exc:  # noqa: BLE001 - recorded, not raised
                    kind = "inference" if isinstance(exc, ZeroEvidenceError) else type(exc).__name__
                    records.append(BenchRecord(*row, name, error=f"{kind}: {exc}"))
                    continue
                answers[name] = answer
                c = answer[1]
                size = net.total_tabular_size() if name == "ve" else net.total_confactor_size()
                records.append(
                    BenchRecord(
                        *row, name, best_ms, c.multiplications, c.additions, c.splits,
                        c.max_table_size, c.max_elim_size, size,
                    )
                )
            check_row(answers, f"{net_id} query {row[1]}")
    return records, render_csv(records)


def render_csv(records: Sequence[BenchRecord]) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for rec in records:
        out.write(rec.csv_row() + "\n")
    return out.getvalue()
