"""Command-line surface: graph ingestion, membership and prime queries, census."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

from . import assoc, census, saturation
from .graphs import SimpleGraph, _mask_order, parse_graph_text
from .matching import WeightedGraph, maximum_matching

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

_MAX_CLONES = 1024  # of the blow-up that `nu` builds: its blossom grows as the cube
_MAX_FREE = 20  # of `facets`: it walks 2^(free vertices) subsets
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode  # the --json form


class InputError(Exception):
    """Unparseable graph, weights or exponents, or a query past its budget (exit code 2)."""


def _load_graph(args: argparse.Namespace) -> SimpleGraph:
    if args.graph is not None and (args.edges is not None or args.n is not None):
        raise InputError("--edges and --n do not combine with a graph file")
    if args.edges is not None:
        pairs: set[tuple[int, int]] = set()
        for chunk in args.edges.split(","):
            parts = chunk.strip().split("-")
            if len(parts) != 2:
                raise InputError(f"bad edge token {chunk!r}, expected 'u-v'")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise InputError(f"bad edge token {chunk!r}, expected integers") from None
            u, v = min(u, v), max(u, v)
            if (u, v) in pairs:
                raise InputError(f"repeated edge ({u},{v})")
            pairs.add((u, v))
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
        raise InputError(f"bad integer in vector {text.strip()!r}") from None
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


def _prime_namer(n: int) -> Callable[[int], str]:
    """The name of a prime by its cover mask: "m" for all n vertices, else its vertices in
    braces, joined from the labels of the mask's bytes (byte k, value b: the vertices 8k + i + 1
    for the bits i of b), each label made once."""
    width, full = (n + 7) // 8, (1 << n) - 1
    labels = [
        [",".join(str(8 * k + i + 1) for i in range(8) if b >> i & 1) for b in range(256)]
        for k in range(width)
    ]

    def name(m: int) -> str:
        if m == full:
            return "m"
        parts = map(list.__getitem__, labels, m.to_bytes(width, "little"))
        return "{" + ",".join(filter(None, parts)) + "}"

    return name


def _emit(
    args: argparse.Namespace, payload: Callable[[], dict], human: Callable[[], list[str]]
) -> None:
    """Set the command's output, building only the form asked for (`payload` for --json,
    else the `human` lines); `main` writes it once the command has its exit status."""
    if args.json:
        args.output = _encode(payload())
    else:
        args.output = "\n".join(human())


def _emit_reports(
    args: argparse.Namespace,
    g: SimpleGraph,
    t: int | None,
    reports: list[assoc.AssPrimeReport],
    title: str,
) -> None:
    """The output of prime reports, set as `_emit` sets it: the JSON lists their dicts
    (and t, if given), each encoded on its own and joined, so that no list of every
    dict is held; the lines name each prime by its cover mask under the title."""
    if args.json:  # in `_encode`'s sorted key order: "primes" before "t"
        primes = ",".join(_encode(r.to_dict()) for r in reports)
        args.output = '{"primes":[' + primes + ("]}" if t is None else f'],"t":{t}}}')
    else:
        name = _prime_namer(g.n)
        args.output = "\n".join([title] + [f"  {name(r.mask):<16} {r.kind}" for r in reports])


def cmd_nu(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    weights = _parse_vector(args.weights, g.n)
    if (clones := sum(weights)) > _MAX_CLONES:
        raise InputError(f"a blow-up of {clones} clones is past its budget of {_MAX_CLONES}")
    h = WeightedGraph(g, weights)
    witness = maximum_matching(h)
    value = len(witness)
    _emit(
        args,
        lambda: {
            "nu": value,
            "matching": [list(e) for e in witness.edges],
            "graph": _weighted_graph_dict(h),
        },
        lambda: [f"nu = {value}", "matching: " + " ".join(f"{u}-{v}" for u, v in witness.edges)],
    )
    return EXIT_OK


def cmd_sat(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    a = _parse_vector(args.exponents, g.n)
    in_pow, in_sat = saturation._membership(g, a, args.t)
    in_diff = in_sat and not in_pow
    _emit(
        args,
        lambda: {"t": args.t, "in_power": in_pow, "in_saturation": in_sat, "in_diff": in_diff},
        lambda: [
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
        try:  # the oracle refuses a table past its budget
            masks = census._oracle_masks(g, t)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        reports = [
            assoc.AssPrimeReport(m, "oracle", {"type": "colon-witness-sweep"})
            for m in sorted(masks, key=_mask_order)
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
    _emit_reports(args, g, t, reports, f"Ass(I^{t}) [{args.method}]: {len(reports)} primes")
    return EXIT_OK


def cmd_ass_infinity(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    reports = assoc.ass_infinity(g)
    _emit_reports(args, g, None, reports, f"Ass^infinity(I): {len(reports)} primes")
    return EXIT_OK


def cmd_astab_bound(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    bound = assoc.s_gamma(g)
    _emit(args, lambda: {"astab_bound": bound}, lambda: [f"astab(I) <= s(Gamma) = {bound}"])
    return EXIT_OK


def cmd_depth(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    try:
        positive = assoc.depth_positive(g, args.t)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    _emit(
        args,
        lambda: {"t": args.t, "depth_positive": positive},
        lambda: [f"depth R/I^{args.t} > 0: {str(positive).lower()}"],
    )
    return EXIT_OK


def cmd_facets(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    a = _parse_vector(args.exponents, g.n, signed=True)
    if (free := sum(x >= 0 for x in a)) > _MAX_FREE:
        raise InputError(f"{free} free vertices (entries >= 0) are past the budget of {_MAX_FREE}")
    try:
        facets = saturation.facets_delta(g, a, args.t)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    _emit(
        args,
        lambda: {"t": args.t, "facets": [sorted(f) for f in facets]},
        lambda: [f"{len(facets)} facet(s):"]
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
    summary = (
        f"census n={report.n} t={report.t}: {report.graphs_checked} graphs, "
        f"{len(report.mismatches)} mismatches, {report.elapsed:.1f}s"
    )
    _emit(
        args,
        report.to_dict,
        lambda: [summary] + [f"  mismatch at edges {m['edges']}" for m in report.mismatches[:10]],
    )
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
    parser.set_defaults(commands=sub.choices)  # for `main`, which parses each one intermixed

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
    argv = sys.argv[1:] if argv is None else list(argv)
    # A command's own arguments are parsed intermixed, so that an option may sit
    # between the graph file and t: argparse alone would hand the file to t.
    # Help and a missing or unknown command go through the top-level parser.
    # argparse reads a token like -1,0,0 as an option but one holding a space as
    # positional, so such a token gets a leading space; int() and _parse_vector strip it.
    command = parser.get_default("commands").get(argv[0]) if argv else None
    if command:
        argv[1:] = [" " + a if a[:1] == "-" and a[1:2].isdigit() else a for a in argv[1:]]
    args = command.parse_intermixed_args(argv[1:]) if command else parser.parse_args(argv)
    if getattr(args, "t", 1) < 1:
        parser.error(f"argument t: the power exponent must be at least 1, got {args.t}")
    try:
        code = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        print(args.output)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader has gone: drop the rest, so exit stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
