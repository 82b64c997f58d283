"""Enumeration oracle, benchmark campaigns and their CSV output.

The oracle computes posteriors straight from the joint factorization, with
no elimination at all; every engine is differentially tested against it and
against the others on each campaign row.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

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
    time_ms: float
    mults: int
    adds: int
    splits: int
    max_table: int
    max_elim: int
    total_size: int
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


def _input_size(name: str, net: ContextualBeliefNetwork) -> int:
    if name == "ve":
        return net.total_tabular_size()
    if name in ("cve", "tve"):
        return net.total_confactor_size()
    return 0


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


def run_campaign(
    nets: Sequence[tuple[str, ContextualBeliefNetwork]],
    queries_per_net: int = 1,
    obs_counts: Sequence[int] = (0, 5, 10),
    seed: int = 0,
    engines: Sequence[str] = ("ve", "cve", "tve"),
    replicates: int = 3,
) -> tuple[list[BenchRecord], str]:
    """Run every engine on uniformly sampled queries over the given networks.

    Each (network, query, engine) cell is evaluated ``replicates`` times and
    the smallest runtime is reported.  Posteriors of all engines must agree
    pairwise within 1e-9 on every row; an engine raising an error yields an
    error row and the campaign continues.  Returns the records plus the CSV
    document (deterministic for a fixed seed, apart from the time_ms column).
    """
    unknown = [name for name in engines if name not in ENGINES]
    if unknown:
        raise ValueError(f"unknown engines: {unknown}")
    if replicates < 1:
        raise ValueError(f"replicates must be at least 1, got {replicates}")
    if queries_per_net < 1:
        raise ValueError(f"queries per network must be at least 1, got {queries_per_net}")
    if any(k < 0 for k in obs_counts):
        raise ValueError(f"observation counts must be non-negative, got {list(obs_counts)}")
    rng = SplitMix64(seed)
    records: list[BenchRecord] = []
    for net_id, net in nets:
        rows = sample_queries(net, rng, queries_per_net, obs_counts)
        for query, obs in rows:
            query_label = net.catalog.names[query]
            evidence_label = ";".join(
                f"{net.catalog.names[v]}={net.catalog.domains[v][val]}"
                for v, val in obs.items()
            )
            posteriors: dict[str, Posterior] = {}
            mults_by_engine: dict[str, int] = {}
            for name in engines:
                best_ms = math.inf
                engine = None
                posterior = None
                failure = None
                try:
                    for _ in range(replicates):
                        engine = ENGINES[name](net)
                        start = time.perf_counter()
                        posterior = engine.query([query], obs)
                        elapsed = (time.perf_counter() - start) * 1000.0
                        best_ms = min(best_ms, elapsed)
                except ZeroEvidenceError as exc:
                    failure = f"inference: {exc}"
                except Exception as exc:  # noqa: BLE001 - recorded, not raised
                    failure = f"{type(exc).__name__}: {exc}"
                if failure is not None:
                    records.append(
                        BenchRecord(
                            net_id, query_label, evidence_label, name,
                            0.0, 0, 0, 0, 0, 0, 0, error=failure,
                        )
                    )
                    continue
                assert engine is not None and posterior is not None
                c: CostCounters = engine.counters
                posteriors[name] = posterior
                mults_by_engine[name] = c.multiplications
                records.append(
                    BenchRecord(
                        net_id,
                        query_label,
                        evidence_label,
                        name,
                        best_ms,
                        c.multiplications,
                        c.additions,
                        c.splits,
                        c.max_table_size,
                        c.max_elim_size,
                        _input_size(name, net),
                    )
                )
            if len(posteriors) > 1:
                names = sorted(posteriors)
                for i in range(len(names)):
                    for j in range(i + 1, len(names)):
                        diff = posteriors[names[i]].max_abs_diff(posteriors[names[j]])
                        if diff > 1e-9:
                            raise InvariantError(
                                f"engines {names[i]} and {names[j]} disagree by "
                                f"{diff:.3e} on {net_id} query {query_label}"
                            )
                if "ve" in mults_by_engine and "tve" in mults_by_engine:
                    if mults_by_engine["tve"] > mults_by_engine["ve"]:
                        raise InvariantError(
                            f"tree engine multiplied more than the tabular engine "
                            f"on {net_id} query {query_label}"
                        )
    csv = render_csv(records)
    return records, csv


def render_csv(records: Sequence[BenchRecord]) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for rec in records:
        out.write(rec.csv_row() + "\n")
    return out.getvalue()
