"""Command-line surface: graph ingestion, membership and prime queries, census."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from . import assoc, census, saturation
from .graphs import SimpleGraph, parse_graph_text
from .matching import WeightedGraph, maximum_matching, nu

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


class InputError(Exception):
    """Unparseable graph, weights or exponents (exit code 2)."""


def _load_graph(args: argparse.Namespace) -> SimpleGraph:
    if args.edges is not None:
        pairs = []
        for chunk in args.edges.split(","):
            parts = chunk.strip().split("-")
            if len(parts) != 2:
                raise InputError(f"bad edge token {chunk!r}, expected 'u-v'")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise InputError(f"bad edge token {chunk!r}, expected integers") from None
            pairs.append((u, v))
        n = args.n if args.n is not None else max(max(e) for e in pairs)
        try:
            return SimpleGraph.from_edges(n, pairs)
        except ValueError as exc:
            raise InputError(str(exc)) from None
    if args.graph is None:
        raise InputError("a graph file or --edges is required")
    try:
        text = Path(args.graph).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {args.graph}: {exc}") from None
    try:
        return parse_graph_text(text)
    except ValueError as exc:
        raise InputError(f"{args.graph}: {exc}") from None


def _parse_vector(text: str, n: int, signed: bool = False) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    try:
        vec = tuple(int(p) for p in parts)
    except ValueError:
        raise InputError(f"bad integer in vector {text!r}") from None
    if len(vec) != n:
        raise InputError(f"vector has {len(vec)} entries, the graph has {n} vertices")
    if not signed and any(x < 0 for x in vec):
        raise InputError("exponents must be non-negative here")
    return vec


def _weighted_graph_dict(h: WeightedGraph) -> dict:
    return {
        "vertices": [f"{v}:{w}" for v, w in zip(h.vertices, h.weights)],
        "edges": [list(e) for e in sorted(h.edges)],
    }


def _prime_name(vertices: frozenset[int], n: int) -> str:
    if len(vertices) == n:
        return "m"
    return "{" + ",".join(map(str, sorted(vertices))) + "}"


def _emit(args: argparse.Namespace, payload: dict, human: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in human:
            print(line)


def _report_payload(t: int | None, reports: list[assoc.AssPrimeReport]) -> dict:
    payload: dict = {"primes": [r.to_dict() for r in reports]}
    if t is not None:
        payload["t"] = t
    return payload


def _report_lines(g: SimpleGraph, reports: list[assoc.AssPrimeReport], title: str) -> list[str]:
    lines = [title]
    for r in reports:
        lines.append(f"  {_prime_name(r.vertices, g.n):<16} {r.kind}")
    return lines


def cmd_nu(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    weights = _parse_vector(args.weights, g.n)
    h = WeightedGraph.from_exponents(g, weights)
    witness = maximum_matching(h)
    value = nu(h)
    _emit(
        args,
        {
            "nu": value,
            "matching": [list(e) for e in witness.edges],
            "graph": _weighted_graph_dict(h),
        },
        [f"nu = {value}", "matching: " + " ".join(f"{u}-{v}" for u, v in witness.edges)],
    )
    return EXIT_OK


def cmd_sat(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    a = _parse_vector(args.exponents, g.n)
    in_pow = saturation.in_power(g, a, args.t)
    in_sat = saturation.in_saturation(g, a, args.t)
    in_diff = in_sat and not in_pow
    _emit(
        args,
        {"t": args.t, "in_power": in_pow, "in_saturation": in_sat, "in_diff": in_diff},
        [
            f"x^a in I^{args.t}: {str(in_pow).lower()}",
            f"x^a in sat(I^{args.t}): {str(in_sat).lower()}",
            f"x^a in sat(I^{args.t}) \\ I^{args.t}: {str(in_diff).lower()}",
        ],
    )
    return EXIT_OK


def cmd_ass(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    t = args.t
    if args.method == "oracle":
        primes = sorted(census.oracle_ass(g, t), key=lambda s: (len(s), sorted(s)))
        reports = [
            assoc.AssPrimeReport(p, "oracle", {"type": "colon-witness-sweep"})
            for p in primes
        ]
    elif args.method == "classified":
        if t == 2:
            reports = assoc.ass_primes_2(g)
        elif t == 3:
            reports = assoc.ass_primes_3(g)
        else:
            raise InputError("--method classified supports t = 2 or 3 only")
    else:
        reports = assoc.ass_primes(g, t)
    _emit(
        args,
        _report_payload(t, reports),
        _report_lines(g, reports, f"Ass(I^{t}) [{args.method}]: {len(reports)} primes"),
    )
    return EXIT_OK


def cmd_ass_infinity(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    reports = assoc.ass_infinity(g)
    _emit(
        args,
        _report_payload(None, reports),
        _report_lines(g, reports, f"Ass^infinity(I): {len(reports)} primes"),
    )
    return EXIT_OK


def cmd_astab_bound(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    bound = assoc.s_gamma(g)
    _emit(args, {"astab_bound": bound}, [f"astab(I) <= s(Gamma) = {bound}"])
    return EXIT_OK


def cmd_depth(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    try:
        positive = assoc.depth_positive(g, args.t)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    _emit(
        args,
        {"t": args.t, "depth_positive": positive},
        [f"depth R/I^{args.t} > 0: {str(positive).lower()}"],
    )
    return EXIT_OK


def cmd_facets(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    a = _parse_vector(args.exponents, g.n, signed=True)
    try:
        facets = saturation.facets_delta(g, a, args.t)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    _emit(
        args,
        {"t": args.t, "facets": [sorted(f) for f in facets]},
        [f"{len(facets)} facet(s):"]
        + ["  {" + ",".join(map(str, sorted(f))) + "}" for f in facets],
    )
    return EXIT_OK


def cmd_census(args: argparse.Namespace) -> int:
    try:
        report = census.run_census(
            args.n, args.t, sample=args.sample, seed=args.seed, threads=args.threads
        )
    except ValueError as exc:
        raise InputError(str(exc)) from None
    human = [
        f"census n={report.n} t={report.t}: {report.graphs_checked} graphs, "
        f"{len(report.mismatches)} mismatches, {report.elapsed:.1f}s"
    ]
    for m in report.mismatches[:10]:
        human.append(f"  mismatch at edges {m['edges']}")
    _emit(args, report.to_dict(), human)
    return EXIT_OK if report.passed else EXIT_MISMATCH


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", nargs="?", help="graph file: first line 'n m', then edges 'u v'")
    p.add_argument("--edges", help="inline edge list, e.g. 1-2,1-3,2-3")
    p.add_argument("--n", type=int, help="vertex count for --edges (default: max endpoint)")
    p.add_argument("--json", action="store_true", help="emit canonical JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgesat",
        description="Membership and associated primes of powers of graph edge ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nu", help="matching number of a weighted graph")
    _add_graph_args(p)
    p.add_argument("weights", help="comma-separated vertex weights (0 drops a vertex)")
    p.set_defaults(func=cmd_nu)

    p = sub.add_parser("sat", help="membership of x^a in I^t and its saturation")
    _add_graph_args(p)
    p.add_argument("t", type=int)
    p.add_argument("exponents", help="comma-separated exponent vector")
    p.set_defaults(func=cmd_sat)

    p = sub.add_parser("ass", help="associated primes of I^t")
    _add_graph_args(p)
    p.add_argument("t", type=int)
    p.add_argument(
        "--method",
        choices=("formula", "oracle", "classified"),
        default="formula",
    )
    p.set_defaults(func=cmd_ass)

    for t in (2, 3):
        p = sub.add_parser(f"ass{t}", help=f"Ass(I^{t}) by the closed form")
        _add_graph_args(p)
        p.set_defaults(func=cmd_ass, t=t, method="classified")

    p = sub.add_parser("ass-infinity", help="the stable set of associated primes")
    _add_graph_args(p)
    p.set_defaults(func=cmd_ass_infinity)

    p = sub.add_parser("astab-bound", help="the stability-index bound s(Gamma)")
    _add_graph_args(p)
    p.set_defaults(func=cmd_astab_bound)

    p = sub.add_parser("depth", help="positivity of depth R/I^t for t in {2,3}")
    _add_graph_args(p)
    p.add_argument("t", type=int)
    p.set_defaults(func=cmd_depth)

    p = sub.add_parser("facets", help="facets of the degree-a complex of I^t")
    _add_graph_args(p)
    p.add_argument("t", type=int)
    p.add_argument("exponents", help="comma-separated signed exponent vector")
    p.set_defaults(func=cmd_facets)

    p = sub.add_parser("census", help="formula-vs-oracle census over labelled graphs")
    p.add_argument("n", type=int)
    p.add_argument("t", type=int)
    p.add_argument("--sample", type=int, help="check this many seeded-random graphs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_census)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "t", 1) < 1:
        parser.error(f"argument t: the power exponent must be at least 1, got {args.t}")
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
