"""ctxve benchmark: per-engine query latency on three seeded workloads.

Usage::

    python3 perfbench/run.py --workload {campaign-biased,ctx-small,hmm-chain} \\
        --seed N --seconds S --trace {0,1}

The load is a closed loop with one client: one process, one query at a time,
BLAS and OpenMP pinned to one thread.  Each query goes through the public
API (``ve_query``, ``cve_query``, ``tve_query``, default elimination order)
and is timed once.  A pass runs every engine over every row of the workload
on networks freshly loaded by its own set-up.  A run makes two passes, and
more while the next one is expected to end within ``--seconds`` of query
time.  Every answer is then checked.

With ``--trace 0`` the last line of standard output is the JSON result with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run.  Full reports (environment, counter digest, failures, sample
counts, spans) go to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

import os

# Pin the thread pools before numpy is imported anywhere.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
ENGINES = ("ve", "cve", "tve")
# Each pass runs on the networks of its own set-up; a run sets up at least
# SETUPS times and for at least SETUP_MIN_S seconds, and setup_s is the median.
SETUPS = 3
SETUP_MIN_S = 1.0
# Two passes at least, so that every timing is a median of two independent
# measurements even when one pass of campaign-biased fills --seconds.
MIN_PASSES = 2
AGREE_TOL = 1e-9
# tracemalloc slows interpreted code about fivefold, so the allocation pass of
# a traced run covers at most this many rows, evenly spaced (every third row
# of ctx-small; every row of the other two workloads).
ALLOC_ROWS = 360
ENUM_STATES = 1 << 16  # rows with at most this many unobserved states meet enum_query
# The paper's counters per query: summed over a workload, except the maxima.
COUNTERS = ("mults", "adds", "splits", "max_table", "max_elim", "eliminations")
MAXIMA = ("max_table", "max_elim")
# Address-space limit per workload, well above each one's measured peak, so
# a runaway intermediate fails as a counted MemoryError instead of being
# killed for memory.
MEMORY_LIMIT_MB = {"campaign-biased": 4096, "ctx-small": 2048, "hmm-chain": 2048}


@dataclass
class Query:
    """One engine's answer to one row, as measured."""

    engine: str
    row: int
    seconds: float
    posterior: object = None  # numpy array, None on failure
    counters: tuple = ()  # in COUNTERS order
    error: str = ""
    peak_alloc: int = 0


@dataclass
class Pass:
    queries: list[Query] = field(default_factory=list)

    def by_engine(self, engine: str) -> list[Query]:
        return [q for q in self.queries if q.engine == engine]

    def seconds(self) -> float:
        return sum(q.seconds for q in self.queries)

    def engine_seconds(self, engine: str) -> float:
        return sum(q.seconds for q in self.by_engine(engine))


def run_pass(instance, tracer=None, alloc=False, first_qid=0, stride=1) -> Pass:
    """Every engine on every ``stride``-th row of the instance's networks.

    Engines take turns row by row, as ``ctxve.bench.run_campaign`` does, so
    each engine's total is spread over the whole pass and a slow spell of
    the machine weighs on all three alike.  ``tracer`` records spans;
    ``alloc`` records each query's tracemalloc peak.
    """
    import ctxve

    functions = {"ve": ctxve.ve_query, "cve": ctxve.cve_query, "tve": ctxve.tve_query}
    out = Pass()
    qid = first_qid
    gc.collect()
    for i, row in enumerate(instance.rows):
        if i % stride:
            continue
        net = instance.nets[row.net]
        for engine in ENGINES:
            fn = functions[engine]
            query = Query(engine, i, 0.0)
            if tracer is not None:
                tracer.begin_query(qid, engine)
            if alloc:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span = tracer.span(f"{engine}.query") if tracer is not None else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with span:
                    posterior, c = fn(net, [row.query], row.obs)
            except Exception as exc:  # noqa: BLE001 - every failure is counted and kept
                query.seconds = time.perf_counter() - start
                query.error = f"{type(exc).__name__}: {exc}"
            else:
                query.seconds = time.perf_counter() - start
                query.posterior = posterior.probabilities
                query.counters = (
                    c.multiplications, c.additions, c.splits,
                    c.max_table_size, c.max_elim_size, len(c.eliminations),
                )
            if alloc:
                query.peak_alloc = tracemalloc.get_traced_memory()[1] - base
            if tracer is not None:
                tracer.end_query()
            out.queries.append(query)
            qid += 1
    return out


# -- correctness -------------------------------------------------------------


def check(instance, passes: list[Pass], nets) -> tuple[list[str], int]:
    """Problems found, and the number of rows checked against a reference.

    Engines must agree pairwise on every row of every pass, every pass must
    repeat the first one's answers and counters, and every row with a
    workload reference, or small enough for ``enum_query``, must match it.
    """
    from ctxve import enum_query

    problems = []
    first = {(q.engine, q.row): q for q in passes[0].queries}
    answered: dict[int, list[Query]] = {}
    for p, run in enumerate(passes):
        rows: dict[int, list[Query]] = {}
        for q in run.queries:
            base = first[(q.engine, q.row)]
            if q.counters != base.counters or (q.error == "") != (base.error == ""):
                problems.append(f"pass {p}: {q.engine} row {q.row} differs from pass 0")
            if not q.error:
                rows.setdefault(q.row, []).append(q)
                answered.setdefault(q.row, []).append(q)
        for row, done in rows.items():
            for i in range(len(done)):
                for j in range(i + 1, len(done)):
                    diff = float(abs(done[i].posterior - done[j].posterior).max())
                    if diff > AGREE_TOL:
                        problems.append(
                            f"pass {p} row {row}: {done[i].engine} and {done[j].engine} "
                            f"disagree by {diff:.3e}"
                        )
    checked = 0
    for i, row in enumerate(instance.rows):
        net = nets[row.net]
        if instance.reference is not None:
            expected = instance.reference(row)
        elif math.prod(net.catalog.size(v) for v in range(net.n_vars()) if v not in row.obs) <= ENUM_STATES:
            expected = enum_query(net, [row.query], row.obs).probabilities
        else:
            continue
        checked += 1
        for q in answered.get(i, []):
            diff = float(abs(q.posterior - expected).max())
            if diff > AGREE_TOL:
                problems.append(f"row {i}: {q.engine} is off the reference by {diff:.3e}")
    return problems, checked


def digest(instance, run: Pass, nets) -> dict:
    """Counter sums and maxima per engine, and a hash of the time-free
    per-row CSV columns (``ctxve.bench.render_csv`` with ``time_ms`` blank),
    rows in campaign order, so seed 0 of ``campaign-biased`` can be diffed
    against acceptance criterion 9's CSV."""
    from ctxve.bench import BenchRecord

    size = {
        "ve": [net.total_tabular_size() for net in nets],
        "cve": [net.total_confactor_size() for net in nets],
    }
    size["tve"] = size["cve"]
    answers = {(q.row, q.engine): q for q in run.queries}
    lines = []
    for i, row in enumerate(instance.rows):
        cat = nets[row.net].catalog
        evidence = ";".join(f"{cat.names[v]}={cat.domains[v][val]}" for v, val in row.obs.items())
        for engine in ENGINES:
            q = answers[(i, engine)]
            counts = q.counters or (0,) * 6
            rec = BenchRecord(
                instance.names[row.net], cat.names[row.query], evidence, engine,
                0.0, *counts[:5], size[engine][row.net], error=q.error or None,
            )
            cells = rec.csv_row().split(",")
            cells[4] = ""
            lines.append(",".join(cells))
    csv = "\n".join(lines) + "\n"
    out = {"csv_sha256": hashlib.sha256(csv.encode()).hexdigest(), "csv": csv}
    for engine in ENGINES:
        rows = [q.counters for q in run.by_engine(engine) if q.counters] or [(0,) * len(COUNTERS)]
        out[engine] = {
            name: (max if name in MAXIMA else sum)(column)
            for name, column in zip(COUNTERS, zip(*rows))
        }
    return out


# -- metrics -----------------------------------------------------------------


def tail_rank(n: int) -> int:
    """Index (ascending) of the highest percentile with at least 10 samples
    beyond it."""
    return max(n - 11, 0)


def end_to_end(passes: list[Pass], setup_times: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics and the sample counts behind them."""
    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    detail = {"setup_s": {"samples": len(setup_times)}}
    for engine in ENGINES:
        per_pass = [sorted(q.seconds for q in run.by_engine(engine)) for run in passes]
        pooled = sorted(t for times in per_pass for t in times)
        n = len(per_pass[0])
        rank = tail_rank(n)
        metrics[f"{engine}.total_s"] = (statistics.median(sum(t) for t in per_pass), "s")
        metrics[f"{engine}.p50_ms"] = (1e3 * statistics.median(pooled), "ms")
        metrics[f"{engine}.tail_ms"] = (1e3 * statistics.median(t[rank] for t in per_pass), "ms")
        detail[f"{engine}.total_s"] = {
            "queries_per_pass": n,
            "per_pass_s": [round(sum(t), 4) for t in per_pass],
        }
        detail[f"{engine}.p50_ms"] = {"samples": len(pooled)}
        detail[f"{engine}.tail_ms"] = {
            "percentile": int(100 * (rank + 1) / n),
            "samples_per_pass": n,
            "beyond": n - rank - 1,
            "passes": len(passes),
        }
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, detail


# Kernels each engine calls, and whether their self time is reported.  A
# kernel that some workload never calls (on hmm-chain: the plain sum-out of
# ve and cve, and the group sums of cve and tve) reports its call count only:
# a time that reads 0.0 on every run of a workload looks unmeasured.
KERNELS = {
    "ve": (("multiply_all_sum_out", True), ("product", True), ("sum_out", False), ("set_table", True)),
    "cve": (("multiply_all_sum_out", True), ("product", True), ("sum_out", False),
            ("add_tables", False), ("set_table", True)),
    "tve": (("product", True), ("sum_out", True), ("add_tables", False), ("set_table", True)),
}
POSTERIOR = {
    "ve": ("normalize_posterior",),
    "cve": ("normalize_posterior", "extract_posterior"),
    "tve": ("normalize_posterior", "tile_confactors"),
}
ENGINE_SPANS = (
    "engine_ve.begin", "engine_ve.eliminate", "engine_ve.finish",
    "engine_cve.begin", "engine_cve.eliminate", "engine_cve.finish",
    "engine_cve.incorporate_evidence", "engine_cve.sum_out_body_occurrences",
    "engine_tve.begin", "engine_tve.eliminate", "engine_tve.finish", "engine_tve.tve_multiply",
)


def per_layer(own: dict, counts: dict, setups: int, counters: dict,
              untraced: Pass, traced: Pass, alloc: Pass) -> dict:
    """The per-layer metrics of a traced run: self times and call counts from
    the spanned pass, counters (the digest's) from the untraced one,
    allocation peaks from the tracemalloc one."""
    m = {}
    for engine in ENGINES:
        for fn, timed in KERNELS[engine]:
            if timed:
                m[f"{engine}.tables.{fn}.s"] = (own.get((engine, f"tables.{fn}"), 0.0), "s")
            m[f"{engine}.tables.{fn}.calls"] = (counts.get((engine, f"tables.{fn}.calls"), 0), "count")
        m[f"{engine}.tables.product.entries"] = (counts.get((engine, "tables.product.entries"), 0), "count")
        if engine != "ve":
            calls = counts.get((engine, "tables.compatible.calls"), 0)
            true = counts.get((engine, "tables.compatible.true"), 0)
            m[f"{engine}.tables.compatible.calls"] = (calls, "count")
            m[f"{engine}.tables.compatible.true_frac"] = (true / calls if calls else 0.0, "ratio")
        m[f"{engine}.orders.min_size_order.s"] = (own.get((engine, "orders.min_size_order"), 0.0), "s")
        m[f"{engine}.orders.min_size_order.calls"] = (
            counts.get((engine, "orders.min_size_order.calls"), 0), "count",
        )
        for fn in POSTERIOR[engine]:
            m[f"{engine}.posterior.{fn}.s"] = (own.get((engine, f"posterior.{fn}"), 0.0), "s")
        for name in COUNTERS:
            if name != "splits" or engine == "cve":  # only cve splits confactors
                m[f"{engine}.{name}"] = (counters[engine][name], "count")
        max_table = counters[engine]["max_table"]
        peak = max((q.peak_alloc for q in alloc.by_engine(engine)), default=0)
        m[f"{engine}.peak_alloc_mb"] = (peak / 2**20, "MB")
        m[f"{engine}.alloc_over_table"] = (peak / (8 * max_table) if max_table else 0.0, "ratio")
        m[f"{engine}.trace_overhead_s"] = (
            traced.engine_seconds(engine) - untraced.engine_seconds(engine), "s",
        )
    for name in ENGINE_SPANS:
        engine = name.split(".")[0].removeprefix("engine_")
        m[f"{name}.s"] = (own.get((engine, name), 0.0), "s")
    m["engine_tve.tve_multiply.calls"] = (counts.get(("tve", "engine_tve.tve_multiply.calls"), 0), "count")
    m["network.tabular_factor.s"] = (own.get(("ve", "network.tabular_factor"), 0.0), "s")
    m["network.tabular_factor.cold_calls"] = (
        counts.get(("ve", "network.tabular_factor.cold_calls"), 0), "count",
    )
    for name in ("structure.generate", "network.from_document"):
        m[f"{name}.s"] = (own.get(("setup", name), 0.0) / setups, "s")
    return m


def layer_shares(own: dict) -> dict:
    """Each layer's share of an engine's traced query time: self times
    grouped by the module part of the span name."""
    shares = {}
    for engine in ENGINES:
        mine = {name: t for (e, name), t in own.items() if e == engine}
        total = sum(mine.values())
        layers: dict[str, float] = {}
        for name, t in mine.items():
            layer = name.split(".")[0]
            layer = "benchmark" if layer == engine else layer
            layers[layer] = layers.get(layer, 0.0) + t
        shares[engine] = {k: round(v / total, 4) for k, v in sorted(layers.items(), key=lambda kv: -kv[1])}
    return shares


# -- environment and output --------------------------------------------------


def environment(args, limit_mb: int) -> dict:
    import numpy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "memory_limit_mb": limit_mb,
        "vm_peak_mb": vm_peak_mb(),
    }


def vm_peak_mb() -> float:
    """Peak address-space size of this process, to set against the limit."""
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmPeak:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MEMORY_LIMIT_MB))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ctxve" / "__init__.py").is_file():
        print(f"perfbench: ctxve sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    limit_mb = MEMORY_LIMIT_MB[args.workload]
    resource.setrlimit(resource.RLIMIT_AS, (limit_mb * 2**20, limit_mb * 2**20))

    import tracer as tracing
    from workloads import WORKLOADS

    spec = WORKLOADS[args.workload]
    spans = tracing.Tracer()
    setup_times: list[float] = []

    def setup():
        start = time.perf_counter()
        instance = spec.build(args.seed, spans)
        setup_times.append(time.perf_counter() - start)
        return instance

    passes: list[Pass] = []
    first = setup()  # its rows and documents are the ones checked

    def measure(instance, **how) -> Pass:
        run = run_pass(instance, **how)
        instance.nets = []  # drop the warmed networks
        passes.append(run)
        return run

    if args.trace:
        # Untraced, spanned and allocation-tracked passes, each on its own
        # freshly loaded networks; counters come from the untraced one.
        measure(first)
        instance = setup()
        spans.install()
        try:
            measure(instance, tracer=spans, first_qid=len(passes[0].queries))
        finally:
            spans.uninstall()
        instance = setup()
        tracemalloc.start()
        try:
            measure(instance, alloc=True, stride=math.ceil(len(first.rows) / ALLOC_ROWS))
        finally:
            tracemalloc.stop()
    else:
        spent = 0.0
        while True:
            run = measure(setup() if passes else first)
            spent += run.seconds()
            if len(passes) >= MIN_PASSES and spent + run.seconds() > args.seconds:
                break
    # More set-ups after the passes, so the set-up samples span the run.
    while len(setup_times) < SETUPS or sum(setup_times) < SETUP_MIN_S:
        setup()

    # The oracle and the input sizes run on freshly loaded networks after all
    # timing, so they never warm a cache that a timed query uses.
    fresh = first.reload()
    problems, checked = check(first, passes, fresh)
    counter_digest = digest(first, passes[0], fresh)
    failures = [
        {"pass": p, "engine": q.engine, "row": q.row, "error": q.error}
        for p, run in enumerate(passes)
        for q in run.queries
        if q.error
    ]
    attempted = sum(len(run.queries) for run in passes)
    if args.trace:
        own = spans.self_times()
        metrics = per_layer(own, spans.counts, len(setup_times), counter_digest, *passes)
        detail = {"layer_shares": layer_shares(own)}
    else:
        metrics, detail = end_to_end(passes, setup_times)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "environment": environment(args, limit_mb),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "problems": problems,
        "rows_checked_against_reference": checked,
        "rows": len(first.rows),
        "passes": len(passes),
        "digest": {k: v for k, v in counter_digest.items() if k != "csv"},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    (OUT / f"{stem}.csv").write_text(counter_digest["csv"], encoding="utf-8")
    if args.trace:
        spans.write(OUT / f"{stem}.spans.jsonl")

    for line in problems[:20]:
        print(f"# CHECK FAILED: {line}")
    for f in failures[:20]:
        print(f"# query failed: {f}")
    print(f"# {args.workload} seed {args.seed}: {len(passes)} passes of {len(first.rows)} rows, "
          f"{checked} rows checked against a reference, failed_frac {len(failures) / attempted:g}")
    print("# digest " + json.dumps(report["digest"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit} {json.dumps(detail.get(name, {}))}")
    for engine, shares in detail.get("layer_shares", {}).items():
        print(f"# {engine} layer shares of traced query time: {json.dumps(shares)}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
