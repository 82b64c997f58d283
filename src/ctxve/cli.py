"""Command-line interface.

Verbs: ``validate``, ``infer``, ``gen``, ``compress``, ``bench``.
Exit codes: 0 on success (``--help`` included), 1 on usage errors (bad or
missing flags, unknown names, impossible generator parameters, malformed or
invalid networks), 2 on inference errors: evidence with probability zero, or a
violated invariant (:class:`~ctxve.errors.InvariantError`), which includes a
failed ``bench`` check (engines that disagree, or ``tve`` multiplying more
than ``ve``).  Either prints one ``inference error:`` line to stderr.
``bench`` keeps going past a query that fails: its CSV row reads ``error``
and the reason goes to stderr.
"""

from __future__ import annotations

import argparse
import sys

from .bench import ENGINES, enum_query, run_campaign
from .errors import CtxveError, InvariantError, ZeroEvidenceError
from .network import load, save
from .structure import (
    CompressionConfig,
    GenConfig,
    compress_network,
    generate_biased_cbn,
    generate_random_cbn,
)
from .tables import split_items

USAGE_ERROR = 1
INFERENCE_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxve",
        description="Exact inference for discrete belief networks with "
        "context-specific independence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a network file")
    p.add_argument("network")

    p = sub.add_parser("infer", help="compute a posterior")
    p.add_argument("network")
    p.add_argument("--query", required=True, help="comma-separated variable names")
    p.add_argument("--evidence", default="", help="A=val,B=val")
    p.add_argument("--engine", default="cve", choices=[*ENGINES, "enum"])
    p.add_argument("--order", default=None, help="comma-separated elimination order")
    p.add_argument("--stats", action="store_true", help="print cost counters to stderr")
    p.add_argument(
        "--audit", action="store_true", help="check cve's invariants while running"
    )

    p = sub.add_parser("gen", help="generate a random contextual network")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--biased", action="store_true")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("compress", help="compress tabular families into confactors")
    p.add_argument("network")
    p.add_argument("--threshold", type=float, default=0.05)
    p.add_argument("--accept-ratio", type=float, default=0.51)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--report", default=None)

    p = sub.add_parser("bench", help="run a benchmark campaign")
    p.add_argument("networks", nargs="+")
    p.add_argument("--queries-per-net", type=int, default=1)
    p.add_argument("--obs-counts", default="0,5,10")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engines", default="ve,cve,tve")
    p.add_argument("-o", "--output", default=None, help="CSV path (default stdout)")
    return parser


def _cmd_validate(args) -> int:
    net = load(args.network, force=True)
    violations = net.validate()
    if violations:
        for line in violations:
            print(line, file=sys.stderr)
        return USAGE_ERROR
    print("OK")
    return 0


def _cmd_infer(args) -> int:
    net = load(args.network)
    cat = net.catalog
    query = [cat.index(name) for name in split_items(args.query)]
    obs = cat.parse_context(args.evidence)
    # An order with no items, such as "" or ",", is no order at all.
    order = [cat.index(name) for name in split_items(args.order or "")] or None
    if args.audit and args.engine != "cve":
        raise ValueError(f"--audit checks the cve engine only, not {args.engine}")
    if args.engine == "enum":
        if order is not None or args.stats:
            raise ValueError("--order and --stats need an elimination engine, not enum")
        posterior = enum_query(net, query, obs)
    else:
        options = {"audit": True} if args.audit else {}
        engine = ENGINES[args.engine](net, **options)
        posterior = engine.query(query, obs, order)
    for line in posterior.lines():
        print(line)
    if args.stats:
        counters = engine.counters
        print("order=" + ",".join(cat.names[v] for v in engine.order), file=sys.stderr)
        print(
            f"mults={counters.multiplications} adds={counters.additions} "
            f"splits={counters.splits} max_table={counters.max_table_size} "
            f"max_elim={counters.max_elim_size}",
            file=sys.stderr,
        )
    return 0


def _cmd_gen(args) -> int:
    cfg = GenConfig(n=args.n, s=args.s, p=args.p, seed=args.seed)
    net = generate_biased_cbn(cfg) if args.biased else generate_random_cbn(cfg)
    save(net, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_compress(args) -> int:
    net = load(args.network)
    cfg = CompressionConfig(threshold=args.threshold, accept_ratio=args.accept_ratio)
    compressed, report = compress_network(net, cfg)
    save(compressed, args.output)
    lines = [
        f"{row['variable']}: {row['tabular_size']} -> {row['compressed_size']} "
        f"entries in {row['confactors']} confactors "
        f"(residual {row['residual']:.3g})"
        for row in report
    ]
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line, file=sys.stderr)
    print(f"wrote {args.output}")
    return 0


def _cmd_bench(args) -> int:
    nets = [(path, load(path)) for path in args.networks]
    records, csv = run_campaign(
        nets,
        queries_per_net=args.queries_per_net,
        obs_counts=[int(x) for x in split_items(args.obs_counts)],
        seed=args.seed,
        engines=split_items(args.engines),
    )
    for rec in records:
        if rec.error is not None:
            print(
                f"failed: {rec.network} query {rec.query} evidence '{rec.evidence}' "
                f"engine {rec.engine}: {rec.error}",
                file=sys.stderr,
            )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(csv)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(csv)
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # --help exits 0, a usage error 2
        return USAGE_ERROR if exc.code else 0
    handlers = {
        "validate": _cmd_validate,
        "infer": _cmd_infer,
        "gen": _cmd_gen,
        "compress": _cmd_compress,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except (ZeroEvidenceError, InvariantError) as exc:
        print(f"inference error: {exc}", file=sys.stderr)
        return INFERENCE_ERROR
    except (CtxveError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
