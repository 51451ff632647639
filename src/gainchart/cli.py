"""Command-line front end.

Commands read a JSON problem file and print either a human-readable report
(``--format pretty``, the default) or a machine-readable JSON document
(``--format machine``) whose rationals are exact strings. Exit codes:
0 success, 2 parse error, 3 infeasible or uncontrollable, 4 domain violation
or outside-chart, 5 gain not in the prescribed class.
"""

from __future__ import annotations

import argparse
import json
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
    format_rational,
    load_json,
    matrix_to_json,
    parse_matrix,
    parse_multi_index_spec,
    parse_problem_text,
    parse_x_spec,
    problem_to_json,
)


def _load_problem(args) -> Problem:
    try:
        with open(args.problem, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read problem file: {e}") from None
    prob = parse_problem_text(text)
    if getattr(args, "x", None):
        prob.x = parse_x_spec(args.x)
    if getattr(args, "k2", None):
        try:
            with open(args.k2, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ParseError(f"cannot read K2 file: {e}") from None
        prob.K2 = parse_matrix(load_json(text, " in K2 file"), "K2 file")
    if getattr(args, "multi_index", None):
        prob.multi_index = parse_multi_index_spec(args.multi_index)
    return prob


def _chain_strings(chain):
    return [str(p) for p in chain]


def _matrix_lines(m: RatMatrix):
    cells = [[str(format_rational(m[i, j])) for j in range(m.cols)] for i in range(m.rows)]
    widths = [max(len(cells[i][j]) for i in range(m.rows)) for j in range(m.cols)] if m.rows else []
    return [
        "[ " + "  ".join(cells[i][j].rjust(widths[j]) for j in range(m.cols)) + " ]"
        for i in range(m.rows)
    ]


def _print_matrix(title: str, m: RatMatrix):
    print(f"{title}:")
    for line in _matrix_lines(m):
        print(f"  {line}")


def _emit(args, doc: dict, pretty_fn):
    if args.format == "machine":
        json.dump(doc, sys.stdout, indent=2)
        print()
    else:
        pretty_fn()


def cmd_check(args) -> int:
    prob = _load_problem(args)
    pair = ControlPair(prob.F, prob.G)
    k, r = controllability_indices(pair)
    chain = invariant_chain(prob.target)
    if chain.total_degree() != pair.n:
        raise ParseError(
            f"target class has size {chain.total_degree()}, state dimension is {pair.n}"
        )
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

    _emit(args, {"command": "check", "problem": problem_to_json(prob), "result": result}, pretty)
    return 0 if rep.segre_ok else 3


def cmd_canon(args) -> int:
    prob = _load_problem(args)
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

    _emit(args, {"command": "canon", "problem": problem_to_json(prob), "result": result}, pretty)
    return 0


def cmd_weyr(args) -> int:
    prob = _load_problem(args)
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

    _emit(args, {"command": "weyr", "problem": problem_to_json(prob), "result": result}, pretty)
    return 0


def _mi_json(chart):
    return [list(seq.order) for seq in chart.mi]


def cmd_chart(args) -> int:
    prob = _load_problem(args)
    chart = build_chart(prob.F, prob.G, prob.target, prob.multi_index)
    result = {
        "multi_index": _mi_json(chart),
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

    _emit(args, {"command": "chart", "problem": problem_to_json(prob), "result": result}, pretty)
    return 0


def cmd_synthesize(args) -> int:
    prob = _load_problem(args)
    chart = build_chart(prob.F, prob.G, prob.target, prob.multi_index)
    if prob.x is None:
        raise ParseError("synthesize needs coordinates: --x or options.x")
    gain = synthesize(chart, prob.x, prob.K2)
    prob.K = gain.K
    result = {
        "multi_index": _mi_json(chart),
        "x": [format_rational(v) for v in gain.coords],
        "K": matrix_to_json(gain.K),
        "verified": True,
    }
    if gain.K2 is not None:
        result["K2"] = matrix_to_json(gain.K2)

    def pretty():
        _print_matrix("K", gain.K)
        print("verification: invariant polynomials of F+GK match the target")

    _emit(
        args,
        {"command": "synthesize", "problem": problem_to_json(prob), "result": result},
        pretty,
    )
    return 0


def cmd_coords(args) -> int:
    prob = _load_problem(args)
    if prob.K is None:
        raise ParseError("coords needs a gain: options.K in the problem file")
    member = None
    if prob.multi_index is not None:
        chart = build_chart(prob.F, prob.G, prob.target, prob.multi_index)
    else:
        chart, member = chart_for_gain(prob.F, prob.G, prob.target, prob.K)
    x, K2 = coordinates(chart, prob.K, member)
    result = {
        "multi_index": _mi_json(chart),
        "x": [format_rational(v) for v in x],
    }
    if K2 is not None:
        result["K2"] = matrix_to_json(K2)

    def pretty():
        print(f"multi-index: {'; '.join(','.join(map(str, b)) for b in result['multi_index'])}")
        print("x = (" + ", ".join(str(format_rational(v)) for v in x) + ")")
        if K2 is not None:
            _print_matrix("K2", K2)

    _emit(args, {"command": "coords", "problem": problem_to_json(prob), "result": result}, pretty)
    return 0


def cmd_verify(args) -> int:
    prob = _load_problem(args)
    if prob.K is None:
        raise ParseError("verify needs a gain: options.K in the problem file")
    if prob.K.shape != (prob.G.cols, prob.F.rows):
        raise ParseError(
            f"K must be {prob.G.cols} x {prob.F.rows}, got {prob.K.shape[0]} x {prob.K.shape[1]}"
        )
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

    _emit(args, {"command": "verify", "problem": problem_to_json(prob), "result": result}, pretty)
    return 0 if match else NotInClassError.exit_code


_COMMANDS = {
    "check": cmd_check,
    "canon": cmd_canon,
    "weyr": cmd_weyr,
    "chart": cmd_chart,
    "synthesize": cmd_synthesize,
    "coords": cmd_coords,
    "verify": cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gainchart",
        description=(
            "Exact feasibility tests and local parametrizations of the "
            "state-feedback gains placing F+GK in a prescribed similarity class."
        ),
    )
    parser.add_argument("--version", action="version", version=f"gainchart {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "check": "feasibility report for the problem's target class",
        "canon": "permuted dual Brunovsky form and the transform reaching it",
        "weyr": "real Weyr form of the target and its centralizer dimension",
        "chart": "chart description: multi-index and dimensions",
        "synthesize": "gain at chart coordinates x (verified)",
        "coords": "chart coordinates of a given gain",
        "verify": "check a gain against the target class",
    }
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--problem", required=True, help="JSON problem file")
        p.add_argument("--format", choices=("pretty", "machine"), default="pretty")
        if name in ("synthesize", "chart", "coords"):
            p.add_argument(
                "--multi-index",
                dest="multi_index",
                help="per-block row orders, e.g. '2,1;1' (overrides options)",
            )
        if name == "synthesize":
            p.add_argument("--x", help="comma-separated rational coordinates")
            p.add_argument("--k2", help="JSON file with the free K2 block")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except GainchartError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except (ValueError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
