"""Command-line front end.

Commands read a JSON problem file and print either a human-readable report
(``--format pretty``, the default) or a machine-readable JSON document
(``--format machine``) whose rationals are exact strings. Exit codes:
0 success, 2 parse error, 3 infeasible or uncontrollable, 4 domain violation
or outside-chart, 5 gain not in the prescribed class.

Each ``cmd_*`` maps the loaded problem to its result, a pretty printer and
its exit code; ``main`` alone parses argv, loads the problem and writes.
"""

from __future__ import annotations

import argparse
import functools
import sys
from . import __version__
from .canonical import checked_centralizer_dimension, invariant_chain, weyr_from_spectral
from .chart import (
    build_chart,
    chart_for_gain,
    coordinates,
    manifold_dimension,
    synthesize,
)
from .errors import GainchartError, NotInClassError, ParseError
from .feedback import ControlPair, controllability_indices, feasibility, to_p_brunovsky
from .linalg import RatMatrix
from .poly import invariant_polynomials
from .problemfile import (
    Problem,
    document_text,
    format_rational,
    load_json,
    matrix_to_json,
    option_json,
    parse_multi_index_spec,
    parse_problem_text,
    parse_x_spec,
    problem_to_json,
    read_option,
)


def _read(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {what}: {e}") from None


def _load_problem(args) -> Problem:
    """The problem file; each flag given, even empty, overrides its option."""
    prob = parse_problem_text(_read(args.problem, "problem file"))
    if args.x is not None:
        prob.x = parse_x_spec(args.x)
    if args.k2 is not None:
        k2 = load_json(_read(args.k2, "K2 file"), " in K2 file")
        prob.K2 = read_option("K2", k2, "K2 file")
    if args.multi_index is not None:
        prob.multi_index = parse_multi_index_spec(args.multi_index)
    return prob


def _chain_strings(chain):
    return [str(p) for p in chain]


def _print_matrix(title: str, m: RatMatrix):
    print(f"{title}:")
    cells = [[str(c) for c in row] for row in matrix_to_json(m)]
    widths = [max(map(len, column)) for column in zip(*cells)]
    for row in cells:
        print("  [ " + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]")


def cmd_check(prob: Problem):
    pair = ControlPair(prob.F, prob.G)
    k, r = controllability_indices(pair)
    chain = invariant_chain(prob.target)
    rep = feasibility(k, prob.target)
    rank_g = r.part(1)
    k, r, degs, union_w = k.parts, r.parts, rep.degrees.parts, rep.weyr_union.parts
    result = {
        "controllability_indices": list(k),
        "brunovsky_indices": list(r),
        "rank_G": rank_g,
        "segre_test": {
            "indices": list(k),
            "degrees": list(degs),
            "majorized": rep.segre_ok,
        },
        "weyr_test": {
            "weyr_union": list(union_w),
            "brunovsky_indices": list(r),
            "majorized": rep.weyr_ok,
        },
        "feasible": rep.segre_ok,
    }
    if rep.segre_ok:
        result["dim"] = manifold_dimension(pair.n, pair.m, chain)

    def pretty():
        print(f"controllability indices k = {k}")
        print(f"Brunovsky indices       r = {r}")
        print(f"rank G = {rank_g}")
        print(f"degree test: {k} majorized by {degs}: {rep.segre_ok}")
        print(f"Weyr test:   {union_w} majorized by {r}: {rep.weyr_ok}")
        if rep.segre_ok:
            print(f"FEASIBLE; gain manifold dimension = {result['dim']}")
        else:
            print("INFEASIBLE")

    return result, pretty, 0 if rep.segre_ok else 3


def cmd_canon(prob: Problem):
    bd = to_p_brunovsky(ControlPair(prob.F, prob.G))
    result = {
        "k": list(bd.k.parts),
        "r": list(bd.r.parts),
        "Fp": matrix_to_json(bd.Fp),
        "Gp": matrix_to_json(bd.Gp),
        "P": matrix_to_json(bd.P),
        "Q": matrix_to_json(bd.Q),
        "R": matrix_to_json(bd.R),
    }

    def pretty():
        print(f"controllability indices k = {tuple(bd.k.parts)}")
        print(f"Brunovsky indices       r = {tuple(bd.r.parts)}")
        _print_matrix("Fp", bd.Fp)
        _print_matrix("Gp", bd.Gp)
        _print_matrix("P", bd.P)
        _print_matrix("Q", bd.Q)
        _print_matrix("R", bd.R)

    return result, pretty, 0


def cmd_weyr(prob: Problem):
    A, structures = weyr_from_spectral(prob.target)
    chain = invariant_chain(prob.target)
    N = checked_centralizer_dimension(chain, structures)
    blocks = []
    for ws in structures:
        entry = {
            "segre": list(ws.segre.parts),
            "weyr": list(ws.weyr.parts),
        }
        if ws.is_complex:
            entry["pair"] = [format_rational(ws.pair[0]), format_rational(ws.pair[1])]
        else:
            entry["eigenvalue"] = format_rational(ws.eigenvalue)
        blocks.append(entry)
    result = {
        "A": matrix_to_json(A),
        "invariant_polynomials": _chain_strings(chain),
        "centralizer_dimension": N,
        "blocks": blocks,
    }

    def pretty():
        _print_matrix("real Weyr form A", A)
        print("invariant polynomials: " + ", ".join(_chain_strings(chain)))
        print(f"centralizer dimension N = {N}")

    return result, pretty, 0


def cmd_chart(prob: Problem):
    chart = build_chart(prob.F, prob.G, prob.target, prob.multi_index)
    result = {
        "multi_index": option_json("multi_index", chart.mi),
        "chart_dimension": chart.dim,
        "manifold_dimension": manifold_dimension(chart.n, chart.m, chart.chain),
        "centralizer_dimension": chart.N,
        "k": list(chart.bd.k.parts),
        "r": list(chart.r.parts),
        "A": matrix_to_json(chart.A),
    }

    def pretty():
        print(f"multi-index: {'; '.join(','.join(map(str, b)) for b in result['multi_index'])}")
        print(f"chart dimension    = {chart.dim} (coordinates)")
        print(f"manifold dimension = {result['manifold_dimension']}")
        print(f"centralizer dimension N = {chart.N}")

    return result, pretty, 0


def cmd_synthesize(prob: Problem):
    chart = build_chart(prob.F, prob.G, prob.target, prob.multi_index)
    if prob.x is None:
        raise ParseError("synthesize needs coordinates: --x or options.x")
    gain = synthesize(chart, prob.x, prob.K2)
    prob.K = gain.K
    result = {
        "multi_index": option_json("multi_index", chart.mi),
        "x": option_json("x", gain.coords),
        "K": option_json("K", gain.K),
        "verified": True,
    }
    if gain.K2 is not None:
        result["K2"] = option_json("K2", gain.K2)

    def pretty():
        _print_matrix("K", gain.K)
        print("verification: invariant polynomials of F+GK match the target")

    return result, pretty, 0


def cmd_coords(prob: Problem):
    if prob.K is None:
        raise ParseError("coords needs a gain: options.K in the problem file")
    member = None
    if prob.multi_index is not None:
        chart = build_chart(prob.F, prob.G, prob.target, prob.multi_index)
    else:
        chart, member = chart_for_gain(prob.F, prob.G, prob.target, prob.K)
    x, K2 = coordinates(chart, prob.K, member)
    result = {
        "multi_index": option_json("multi_index", chart.mi),
        "x": option_json("x", x),
    }
    if K2 is not None:
        result["K2"] = option_json("K2", K2)

    def pretty():
        print(f"multi-index: {'; '.join(','.join(map(str, b)) for b in result['multi_index'])}")
        print("x = (" + ", ".join(map(str, result["x"])) + ")")
        if K2 is not None:
            _print_matrix("K2", K2)

    return result, pretty, 0


def cmd_verify(prob: Problem):
    if prob.K is None:
        raise ParseError("verify needs a gain: options.K in the problem file")
    chain = invariant_chain(prob.target)
    achieved = invariant_polynomials(prob.F + prob.G @ prob.K)
    match = achieved == chain
    result = {
        "target": _chain_strings(chain),
        "achieved": _chain_strings(achieved),
        "match": match,
    }

    def pretty():
        print("target:   " + ", ".join(result["target"]))
        print("achieved: " + ", ".join(result["achieved"]))
        print("MATCH" if match else "MISMATCH")

    return result, pretty, 0 if match else NotInClassError.exit_code


_FLAGS = {
    "--multi-index": "per-block row orders, e.g. '2,1;1' (overrides options)",
    "--x": "comma-separated rational coordinates",
    "--k2": "JSON file with the free K2 block",
}

# command -> (handler, help, flags beyond --problem and --format)
_COMMANDS = {
    "check": (cmd_check, "feasibility report for the problem's target class", ()),
    "canon": (cmd_canon, "permuted dual Brunovsky form and the transform reaching it", ()),
    "weyr": (cmd_weyr, "real Weyr form of the target and its centralizer dimension", ()),
    "chart": (cmd_chart, "chart description: multi-index and dimensions", ("--multi-index",)),
    "synthesize": (
        cmd_synthesize,
        "gain at chart coordinates x (verified)",
        ("--multi-index", "--x", "--k2"),
    ),
    "coords": (cmd_coords, "chart coordinates of a given gain", ("--multi-index",)),
    "verify": (cmd_verify, "check a gain against the target class", ()),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gainchart",
        description=(
            "Exact feasibility tests and local parametrizations of the "
            "state-feedback gains placing F+GK in a prescribed similarity class."
        ),
    )
    parser.add_argument("--version", action="version", version=f"gainchart {__version__}")
    # every flag reads None on the commands that do not take it
    parser.set_defaults(multi_index=None, x=None, k2=None)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--problem", required=True, help="JSON problem file")
        p.add_argument("--format", choices=("pretty", "machine"), default="pretty")
        for flag in flags:
            p.add_argument(flag, help=_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        prob = _load_problem(args)
        result, pretty, code = _COMMANDS[args.command][0](prob)
        if args.format == "machine":
            doc = {"command": args.command, "problem": problem_to_json(prob), "result": result}
            print(document_text(doc))
        else:
            pretty()
        return code
    except GainchartError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except (ValueError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
