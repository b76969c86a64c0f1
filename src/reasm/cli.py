"""Command-line front end. Every subcommand prints a single JSON document to
stdout; identical argv always produces identical bytes. Exit status is 0 on
success, 1 on a domain error (and for verify-lemma, whenever the check did
not pass), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import generators, oracles, reductions, solvers, trees
from .graphs import format_graph, parse_graph, vertices_of

# Size caps, checked before any work. partitions4 N lists every partition,
# about N^3/144 tuples (189,375 and 2.8 MB of JSON at the cap), and gen emits
# up to n(n-1)/2 edges (523,776 for a clique at the cap).
MAX_PARTITIONS4_N = 300
MAX_GEN_N = 1024


def _read_graph(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_graph(handle.read())


def _read_tree(path: str, n: int):
    with open(path, "r", encoding="utf-8") as handle:
        return trees.ReassemblingTree.from_json(handle.read(), n=n)


def _emit(doc: dict, pretty: bool) -> None:
    if pretty:
        print(json.dumps(doc, indent=2))
    else:
        print(json.dumps(doc, separators=(",", ":")))


def _graph_doc(g) -> dict:
    return {"n": g.n, "m": g.m, "edgeList": format_graph(g)}


def _parse_sizes(text: str):
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"sizes must be comma-separated ints, got {text!r}") from None
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reasm",
        description="Balanced graph reassembling: measures, optimizers, oracles, reductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pretty = argparse.ArgumentParser(add_help=False)
    pretty.add_argument("--pretty", action="store_true", help="indent the JSON output")

    p = sub.add_parser("measure", parents=[pretty], help="alpha and beta of a (graph, tree) pair")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("tree", help="tree JSON file (array of clusters)")

    p = sub.add_parser("optimize", parents=[pretty], help="exact optimum over balanced trees")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--objective", choices=("alpha", "beta"), default="beta")
    p.add_argument("--sense", choices=("min", "max"), default="min")

    p = sub.add_parser("oracle", parents=[pretty], help="brute-force oracles")
    p.add_argument("which", choices=("minbisect", "cliquecover4", "partitions4"))
    p.add_argument("target", help="edge-list file, or n for partitions4")
    p.add_argument("--sizes", help="four comma-separated block sizes (cliquecover4)")

    p = sub.add_parser("reduce", parents=[pretty], help="reduction constructions")
    p.add_argument("which", choices=("augment", "equal-size-gadget"))
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--sizes", help="four comma-separated block sizes (equal-size-gadget)")

    p = sub.add_parser("verify-lemma", parents=[pretty], help="check a structural claim on seeded instances")
    p.add_argument("lemma", type=int, choices=sorted(reductions.LEMMA_SUMMARIES))
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--seed", type=int, default=generators.DEFAULT_SEED)
    p.add_argument("--n", type=int, default=None, help="instance size (per-lemma default)")

    p = sub.add_parser("gen", parents=[pretty], help="emit a graph from a named family")
    p.add_argument("--family", choices=generators.FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=generators.DEFAULT_SEED)

    return parser


def _run_measure(args) -> int:
    g = _read_graph(args.graph)
    t = _read_tree(args.tree, g.n)
    pair = trees.measures(g, t)
    doc = {"alpha": pair.alpha, "beta": pair.beta}
    if g.n & (g.n - 1) == 0 and t.is_balanced():
        doc["betaViaHeights"] = trees.beta_via_edge_heights(g, t)
    _emit(doc, args.pretty)
    return 0


def _run_optimize(args) -> int:
    g = _read_graph(args.graph)
    tree, value = solvers.optimize_balanced(g, args.objective, args.sense)
    _emit({"value": value, "tree": tree.to_lists()}, args.pretty)
    return 0


def _run_oracle(args) -> int:
    if args.which == "partitions4":
        n = int(args.target)
        if n > MAX_PARTITIONS4_N:
            raise ValueError(f"partitions4 is capped at n <= {MAX_PARTITIONS4_N}, got {n}")
        parts = oracles.partitions4(n)
        doc = {
            "count": len(parts),
            "closedForm": oracles.p4_closed_form(n),
            "partitions": [list(p) for p in parts],
        }
        _emit(doc, args.pretty)
        return 0
    g = _read_graph(args.target)
    if args.which == "minbisect":
        value, optima = oracles.min_bisections(g)
        doc = {
            "value": value,
            "count": len(optima),
            "bisections": [b.to_lists() for b in optima],
        }
        _emit(doc, args.pretty)
        return 0
    if args.sizes:
        cover = oracles.find_fixed_size_cover4(g, _parse_sizes(args.sizes))
    else:
        cover = oracles.find_equal_size_cover4(g)
    doc = {"found": cover is not None}
    if cover is not None:
        doc["blocks"] = [list(vertices_of(b)) for b in cover]
    _emit(doc, args.pretty)
    return 0


def _run_reduce(args) -> int:
    g = _read_graph(args.graph)
    if args.which == "augment":
        ag = reductions.augment(g)
        doc = _graph_doc(ag.graph)
        doc.update(
            {
                "gPart": list(vertices_of(ag.g_mask)),
                "hPart": list(vertices_of(ag.h_mask)),
                "iPart": list(vertices_of(ag.i_mask)),
                "r": ag.r,
                "q": ag.q,
            }
        )
        _emit(doc, args.pretty)
        return 0
    if not args.sizes:
        raise ValueError("equal-size-gadget needs --sizes")
    sizes = _parse_sizes(args.sizes)
    gadget = reductions.equal_size_gadget(g, sizes)
    doc = _graph_doc(gadget)
    doc["addedBlocks"] = [
        list(vertices_of(b)) for b in reductions.gadget_blocks(g.n, sizes)
    ]
    _emit(doc, args.pretty)
    return 0


def _run_verify_lemma(args) -> int:
    report = reductions.verify_lemma(
        args.lemma, instances=args.instances, seed=args.seed, n=args.n
    )
    _emit(report.to_json_dict(), args.pretty)
    return 0 if report.passed else 1


def _run_gen(args) -> int:
    if args.n > MAX_GEN_N:
        raise ValueError(f"gen is capped at n <= {MAX_GEN_N}, got {args.n}")
    g = generators.generate_family(args.family, args.n, seed=args.seed)
    doc = {"family": args.family, **_graph_doc(g)}
    _emit(doc, args.pretty)
    return 0


_RUNNERS = {
    "measure": _run_measure,
    "optimize": _run_optimize,
    "oracle": _run_oracle,
    "reduce": _run_reduce,
    "verify-lemma": _run_verify_lemma,
    "gen": _run_gen,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _RUNNERS[args.command](args)
    except (ValueError, trees.InvalidTreeError, reductions.LemmaViolation, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
