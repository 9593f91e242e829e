"""Command-line front end.

Subcommands:
    surface    emit the surface data as JSON
    solve      solve a parameter word; emit the solution JSON
    omega      emit the rectangle domain as JSON
    dual       emit the dual solution and domain as JSON
    verify     run one verifier: bijectivity | conjugacy | duality | markov
    code       code one geodesic; emit the symbol window as JSON
    sweep      verify every parameter word of a genus (or a random sample)
    attractor  run the exploratory attractor experiment
    render     write an SVG of a domain or of the polygon

Exit codes: 0 on success/pass, 1 on verification failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .attractor import attractor_experiment
from .boundary import build_domain, solve, verify_bijectivity
from .circle import TOL, CirclePoint
from .coding import (
    code_geodesic,
    markov_transition_matrix,
    sofic_amalgamate,
    verify_conjugacy,
)
from .duality import build_omega_dual, verify_duality
from .errors import FuchsianError
from .render import (
    omega_dual_spec,
    omega_geo_spec,
    omega_spec,
    polygon_spec,
    render_svg,
)
from .surface import build_regular_surface
from .sweep import sweep

USAGE_ERROR = 2
VERIFY_FAILURE = 1


def default_tol() -> float:
    value = os.environ.get("FUCHSIAN_TOL")
    return float(value) if value else TOL


def _add_common(parser: argparse.ArgumentParser, with_params: bool = True):
    parser.add_argument("--genus", type=int, default=2, help="surface genus (>= 2)")
    parser.add_argument("--offset", type=float, default=0.0, help="angular offset of V_1")
    if with_params:
        parser.add_argument("--params", required=True, help="word over {P,Q} of length 8g-4")
    parser.add_argument("--tol", type=float, default=None, help="tolerance override")
    parser.add_argument("--out", default=None, help="output file (default stdout)")


def _output(out: str | None):
    """The file named by --out, opened for writing, or stdout (left open)."""
    return open(out, "w") if out else contextlib.nullcontext(sys.stdout)


def _emit(text: str, out: str | None):
    with _output(out) as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def _check_word(word: str, genus: int) -> str | None:
    n = 8 * genus - 4
    w = word.upper()
    if len(w) != n or any(ch not in "PQ" for ch in w):
        return (
            f"parameter word must have length {n} over {{P,Q}} for genus {genus}; "
            f"got {word!r} (length {len(word)})"
        )
    return None


def _check_options(args) -> str | None:
    """One line naming the first misused option, or None.

    Resolves a missing --tol from FUCHSIAN_TOL, so commands read args.tol.
    """
    lows = {"genus": 2, "samples": 1, "random": 1, "iters": 0, "future": 0, "past": 0, "seed": 0}
    for name, low in lows.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            return f"--{name} must be at least {low}; got {value}"
    for name in ("offset", "u", "w"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            return f"--{name} must be a finite number; got {value}"
    if args.tol is None:
        source, raw = "FUCHSIAN_TOL", os.environ.get("FUCHSIAN_TOL")
        try:
            args.tol = default_tol()
        except ValueError:
            args.tol = math.nan
    else:
        source, raw = "--tol", args.tol
    # 1e-3: below the least gap between distinct named points (0.039 at g = 2, 0.0025 at g = 22).
    if not 0.0 < args.tol < 1e-3:
        return f"{source} must be a positive number below 1e-3; got {raw!r}"
    if args.command == "render" and args.what != "polygon" and not args.params:
        return "render --what omega/omega-dual/omega-geo requires --params"
    if getattr(args, "params", None) is not None:
        return _check_word(args.params, args.genus)
    return None


def _prepare(args):
    """The surface, and the solved --params word or None."""
    surface = build_regular_surface(args.genus, offset=args.offset)
    if getattr(args, "params", None) is None:
        return surface, None
    return surface, solve(surface, args.params.upper(), args.tol)


def cmd_surface(args) -> int:
    surface, _ = _prepare(args)
    _emit(surface.to_json(), args.out)
    return 0


def cmd_solve(args) -> int:
    _, solved = _prepare(args)
    _emit(solved.to_json(), args.out)
    return 0


def _rects_json(rects) -> list[dict]:
    return [
        {
            "strip": r.strip,
            "kind": r.kind,
            "x": [r.x0, r.width],
            "y": [r.y0, r.height],
            "degenerate": r.degenerate,
        }
        for r in rects
    ]


def cmd_omega(args) -> int:
    _, solved = _prepare(args)
    rects = build_domain(solved).rects
    doc = {"genus": args.genus, "params": solved.params.word, "rectangles": _rects_json(rects)}
    _emit(json.dumps(doc, indent=2), args.out)
    return 0


def cmd_dual(args) -> int:
    _, solved = _prepare(args)
    dual_domain = build_omega_dual(solved)
    doc = json.loads(dual_domain.dual.to_json())
    doc["rectangles"] = _rects_json(dual_domain.rectangles())
    _emit(json.dumps(doc, indent=2), args.out)
    return 0


def cmd_verify(args) -> int:
    _, solved = _prepare(args)
    domain = build_domain(solved)
    if args.what == "markov":
        return _verify_markov(args, solved)
    checks = dict(samples=args.samples, seed=args.seed, tol=args.tol)
    if args.what == "bijectivity":
        report = verify_bijectivity(solved, domain, **checks)
    elif args.what == "conjugacy":
        report = verify_conjugacy(solved, domain, **checks)
    else:  # duality
        report = verify_duality(solved, domain, build_omega_dual(solved, args.tol), **checks)
    _emit(json.dumps(report.to_json(), indent=2), args.out)
    return 0 if report.passed else VERIFY_FAILURE


def _verify_markov(args, solved) -> int:
    try:
        tm = markov_transition_matrix(solved, args.tol)
    except FuchsianError as exc:
        _emit(json.dumps({"passed": False, "error": str(exc)}, indent=2), args.out)
        return VERIFY_FAILURE
    graph = sofic_amalgamate(solved.params, tm)
    if args.matrix_out:
        _emit(tm.to_text() + "\n", args.matrix_out)
    if args.sofic_out:
        _emit(graph.to_json() + "\n", args.sofic_out)
    doc = {
        "passed": True,
        "intervals": tm.size,
        "odd_row_entries": sorted({len(tm.row_entries(k)) for k in range(1, tm.size + 1, 2)}),
        "even_row_entries": sorted({len(tm.row_entries(k)) for k in range(2, tm.size + 1, 2)}),
        "adjacency": {str(k): tm.row_entries(k) for k in range(1, tm.size + 1)},
        "sofic_vertices": graph.n,
        "sofic_edges": len(graph.edges()),
        "strongly_connected": graph.is_strongly_connected(),
    }
    _emit(json.dumps(doc, indent=2), args.out)
    return 0


def cmd_code(args) -> int:
    _, solved = _prepare(args)
    u, w = CirclePoint(args.u), CirclePoint(args.w)
    seq = code_geodesic(solved, build_domain(solved), u, w, args.future, args.past, args.tol)
    _emit(json.dumps(seq.to_json(), indent=2), args.out)
    return 0


def cmd_sweep(args) -> int:
    surface, _ = _prepare(args)
    if args.genus == 2 and args.random is None:
        words = ("".join(bits) for bits in itertools.product("PQ", repeat=surface.n))
    else:
        rng = np.random.default_rng(args.seed)
        count = 100 if args.random is None else args.random
        words = ("".join(rng.choice(["P", "Q"], size=surface.n)) for _ in range(count))
    mode = "analytic" if args.analytic_only else "both"
    count = failures = 0
    with _output(args.out) as fh:
        for r in sweep(surface, words, mode, args.samples, args.seed, args.tol):
            fh.write(f"{r.word} {r.verdict}\n")
            count += 1
            failures += not r.passed
        fh.write(f"sweep genus={args.genus} words={count} failures={failures} seed={args.seed}\n")
    return 0 if failures == 0 else VERIFY_FAILURE


def cmd_attractor(args) -> int:
    _, solved = _prepare(args)
    report = attractor_experiment(
        solved, build_domain(solved), args.iters, args.samples, args.seed, args.tol
    )
    _emit(json.dumps(report.to_json(), indent=2), args.out)
    return 0 if report.forward_invariant_ok else VERIFY_FAILURE


def cmd_render(args) -> int:
    surface, solved = _prepare(args)
    if args.what == "polygon":
        spec = polygon_spec(surface)
    elif args.what == "omega":
        spec = omega_spec(solved, build_domain(solved))
    elif args.what == "omega-dual":
        spec = omega_dual_spec(solved, build_omega_dual(solved, args.tol))
    else:  # omega-geo
        spec = omega_geo_spec(surface)
    _emit(render_svg(spec), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuchsian",
        description="Boundary maps, natural extensions and geodesic coding "
        "for compact hyperbolic surfaces.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in (
        ("surface", cmd_surface, "emit surface data as JSON"),
        ("solve", cmd_solve, "solve a parameter word"),
        ("omega", cmd_omega, "emit the rectangle domain"),
        ("dual", cmd_dual, "emit the dual solution and domain"),
    ):
        p = sub.add_parser(name, help=text)
        _add_common(p, with_params=name != "surface")
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="run one verifier")
    p.add_argument("what", choices=["bijectivity", "conjugacy", "duality", "markov"])
    _add_common(p)
    p.add_argument("--samples", type=int, default=10_000, help="random samples (default 10000)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--matrix-out", default=None, help="markov only: write the 0/1 grid here")
    p.add_argument("--sofic-out", default=None, help="markov only: write the labeled edge list here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("code", help="code one geodesic")
    _add_common(p)
    p.add_argument("--u", type=float, required=True, help="start angle (radians)")
    p.add_argument("--w", type=float, required=True, help="end angle (radians)")
    p.add_argument("--future", type=int, default=10, help="forward symbols (default 10)")
    p.add_argument("--past", type=int, default=10, help="backward symbols (default 10)")
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("sweep", help="verify many parameter words")
    _add_common(p, with_params=False)
    p.add_argument("--samples", type=int, default=1000, help="Monte Carlo samples per word")
    p.add_argument("--seed", type=int, default=0, help="word k gets Monte Carlo seed SEED + k")
    p.add_argument(
        "--random", type=int, default=None,
        help="number of random words (default 100; genus 2 without it sweeps all 4096 words)",
    )
    p.add_argument("--analytic-only", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("attractor", help="exploratory attractor experiment")
    _add_common(p)
    p.add_argument("--iters", type=int, default=50, help="extension-map steps (default 50)")
    p.add_argument("--samples", type=int, default=10_000, help="random pairs (default 10000)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.set_defaults(func=cmd_attractor)

    p = sub.add_parser("render", help="write an SVG")
    p.add_argument("--what", choices=["omega", "omega-dual", "omega-geo", "polygon"], required=True)
    _add_common(p, with_params=False)
    p.add_argument("--params", default=None, help="word over {P,Q}; needed except for polygon")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    msg = _check_options(args)
    if msg:
        print(msg, file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.func(args)
    except FuchsianError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VERIFY_FAILURE
    except OSError as exc:  # an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
