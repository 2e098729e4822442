"""Command-line front end over the construction and search modules.

Verbs: ``construct`` writes a configuration built by one of the named
builders, ``copies`` enumerates congruent copies of a simplex inside a
stored configuration, ``solve`` runs the coloring search on a problem
file, ``scan`` runs one of the exhaustive logic scans, and ``report``
prints a human-readable summary of any artifact.

Every artifact is JSON and written atomically, then read back and
compared with what was written before the verb reports success: an
array of ``points`` bit for bit, the rest as JSON text, without
validating a configuration a second time.  Exit
codes: 0 for success (FORCED for solve, zero violations for scan), 1
for a found counterexample or scan violations, 2 for any error or
indeterminate outcome.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .geometry import (
    Configuration,
    GeometryError,
    SimplexSpec,
    embed_from_distances,
    enumerate_copies,
    read_json,
    write_json_atomic,
)
from .palettes import classification_scan
from .perturbation import build_perturbation_grid, contract_simplex, eps_max
from .rectangles import path_config, product_config, regular_simplex
from .solver import (
    BudgetExceeded,
    ColoringProblem,
    DEFAULT_BUDGET,
    five_point_logic_scan,
    solve_gr,
)
from .tetra import (
    build_anchor_gadget,
    build_link,
    build_x1,
    dense_quadruple,
    glue_two_copies,
    tetra_profile,
)
from .triangles import build_five_point, chain_on_sphere

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_ERROR = 2


def _spec(args, k: int) -> SimplexSpec:
    """The ``--spec`` file if given, else the regular k-simplex of ``--side``."""
    if args.spec is not None:
        return SimplexSpec.load(args.spec)
    return SimplexSpec.regular(k, args.side)


def _add_tetra_source(sub):
    sub.add_argument("--spec", help="squared-distance matrix JSON for the tetrahedron")
    sub.add_argument("--side", type=float, default=1.0, help="regular side when --spec is absent")


def _construct_five_point(args) -> Configuration:
    return build_five_point(args.a, args.b, args.c, args.eps)


def _construct_chain(args) -> Configuration:
    if not 0.0 < args.gap <= 2.0 * args.s < np.inf:
        raise GeometryError(f"need a finite s and a gap in (0, 2s], got s={args.s}, gap={args.gap}")
    if args.dim < 3:
        raise GeometryError(f"a sphere chain needs --dim >= 3, got {args.dim}")
    center = np.zeros(args.dim)
    u = center.copy()
    u[0] = args.s
    alpha = 2.0 * np.arcsin(args.gap / (2.0 * args.s))
    v = center.copy()
    v[0] = args.s * np.cos(alpha)
    v[1] = args.s * np.sin(alpha)
    return chain_on_sphere(center, args.s, u, v, args.d)


def _construct_regular_simplex(args) -> Configuration:
    return regular_simplex(args.n, args.x)


def _construct_path(args) -> Configuration:
    return path_config(args.t, args.x, args.y).as_configuration()


def _construct_product(args) -> Configuration:
    left = regular_simplex(args.n, args.x)
    right = path_config(args.t, args.x, args.y).as_configuration()
    return product_config(left, right).product


def _construct_grid(args) -> Configuration:
    spec = _spec(args, args.regular_k)
    return build_perturbation_grid(spec, [args.m] * (spec.k - 1), args.eps)


def _construct_hinge(args) -> Configuration:
    profile = tetra_profile(_spec(args, 4))
    phi = args.phi if args.phi is not None else profile.theta
    return glue_two_copies(profile, phi)


def _construct_dense_quad(args) -> Configuration:
    return dense_quadruple(tetra_profile(_spec(args, 4)))


def _construct_link(args) -> Configuration:
    spec = _spec(args, 4)
    profile = tetra_profile(spec)
    pts = embed_from_distances(spec)
    shift = np.zeros(pts.shape[1])
    shift[0] = args.offset
    return build_link(profile, pts, pts + shift, corner_angle=args.corner_angle).cfg


def _construct_x1(args) -> Configuration:
    spec = _spec(args, 4)
    profile = tetra_profile(spec)
    return build_x1(profile, embed_from_distances(spec), corner_angle=args.corner_angle).cfg


def _construct_anchor_gadget(args) -> Configuration:
    spec = _spec(args, 4)
    profile = tetra_profile(spec)
    edge = tuple(args.edge) if args.edge is not None else None
    return build_anchor_gadget(profile, edge=edge, k=args.k, corner_angle=args.corner_angle).cfg


def _construct_contract(args) -> Configuration:
    spec = _spec(args, args.regular_k)
    contracted = contract_simplex(spec, args.eps)
    margin = eps_max(spec)
    return Configuration(
        points=embed_from_distances(contracted),
        notes={
            "kind": "contracted_simplex",
            "eps": args.eps,
            "eps_max": margin,
            "original_sq_dist": spec.sq_dist.tolist(),
        },
    )


CONSTRUCTORS = {
    "five-point": _construct_five_point,
    "chain": _construct_chain,
    "regular-simplex": _construct_regular_simplex,
    "path": _construct_path,
    "product": _construct_product,
    "grid": _construct_grid,
    "hinge": _construct_hinge,
    "dense-quad": _construct_dense_quad,
    "link": _construct_link,
    "x1": _construct_x1,
    "anchor-gadget": _construct_anchor_gadget,
    "contract": _construct_contract,
}


def _check_written(path: str, payload: dict) -> None:
    """Compare the file at ``path`` with the ``payload`` written there:
    an ndarray ``points`` bit for bit, the rest as JSON text, so NaN and
    -0.0 compare exactly.  Without an array the writer's text is
    ``json.dumps(payload)``, so the file's bytes are compared with it."""
    want = payload.get("points")
    if not isinstance(want, np.ndarray):
        with open(path, "rb") as fh:
            same = fh.read() == f"{json.dumps(payload)}\n".encode()
    else:
        back = read_json(path)
        got = back.get("points")
        same = (
            isinstance(got, np.ndarray)
            and got.dtype == want.dtype
            and np.array_equal(got.view(np.uint64), want.view(np.uint64))
            and json.dumps({**back, "points": None}) == json.dumps({**payload, "points": None})
        )
    if not same:
        raise GeometryError("written configuration does not round-trip")


def _cmd_construct(args) -> int:
    cfg = CONSTRUCTORS[args.name](args)
    _check_written(args.output, cfg.save(args.output))
    n_copies = sum(len(v) for v in cfg.named_copies.values())
    print(f"wrote {args.output}: {len(cfg)} points, dim {cfg.dim}, {n_copies} named copies")
    return EXIT_OK


def _cmd_copies(args) -> int:
    cfg = Configuration.load(args.config)
    spec = SimplexSpec.load(args.spec)
    found = enumerate_copies(cfg, spec)
    payload = {
        "kind": "copies",
        "config": args.config,
        "spec": spec.to_json_dict(),
        "count": len(found),
        "copies": [list(t) for t in found],
    }
    write_json_atomic(args.output, payload)
    _check_written(args.output, payload)
    print(f"wrote {args.output}: {len(found)} copies")
    return EXIT_OK


def _cmd_solve(args) -> int:
    if not args.budget > 0.0:  # a NaN deadline would never pass
        raise ValueError(f"--budget must be a positive number of seconds, got {args.budget}")
    problem = ColoringProblem.from_json_dict(read_json(args.problem))
    result = solve_gr(problem, budget=args.budget)
    payload = result.to_json_dict()
    payload["r"] = problem.r
    payload["points"] = len(problem.cfg.points)
    write_json_atomic(args.output, payload)
    _check_written(args.output, payload)
    print(f"{result.verdict} in {result.stats.nodes} nodes -> {args.output}")
    return EXIT_OK if result.verdict == "FORCED" else EXIT_FOUND


def _cmd_scan(args) -> int:
    if args.kind == "five-point":
        body = five_point_logic_scan(args.r)
        violations = body["violations"]
    else:
        body = classification_scan(args.r)
        violations = body["unclassifiable"]
    payload = {"kind": args.kind, "r": args.r, **body}
    write_json_atomic(args.output, payload)
    _check_written(args.output, payload)
    print(f"wrote {args.output}: {violations} violations")
    return EXIT_OK if violations == 0 else EXIT_FOUND


def _summarize(data: dict) -> list:
    if "verdict" in data:
        lines = [f"solve result: {data['verdict']}"]
        if data.get("witness") is not None:
            lines.append(f"witness over {len(data['witness'])} points")
        if "stats" in data:
            lines.append(
                f"nodes {data['stats'].get('nodes')}, elapsed {data['stats'].get('elapsed'):.3f}s"
            )
        return lines
    if data.get("kind") == "copies":
        return [f"copies artifact: {data['count']} copies of a {len(data['spec']['sq_dist'])}-point spec"]
    if data.get("kind") in ("five-point", "classification"):
        keys = [k for k in data if k not in ("kind", "r")]
        body = ", ".join(f"{k}={data[k]}" for k in sorted(keys))
        return [f"{data['kind']} scan at r={data['r']}: {body}"]
    if "points" in data and "dim" in data:
        cfg = Configuration.from_json_dict(data)
        lines = [f"configuration: {len(cfg)} points, dim {cfg.dim}"]
        for name, tuples in cfg.named_copies.items():
            lines.append(f"  copies[{name}]: {len(tuples)}")
        if cfg.notes:
            kind = cfg.notes.get("kind")
            if kind:
                lines.append(f"  kind: {kind}")
        return lines
    if "config" in data and "mono" in data:
        return [
            "problem: "
            f"{len(data['config']['points'])} points, r={data['r']}, "
            f"{len(data['mono'])} mono targets, {len(data['rainbow'])} rainbow targets"
        ]
    raise GeometryError("unrecognized artifact shape")


def _cmd_report(args) -> int:
    for line in _summarize(read_json(args.file)):
        print(line)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="egr")
    verbs = parser.add_subparsers(dest="verb", required=True)

    construct = verbs.add_parser("construct", help="build and write a configuration")
    names = construct.add_subparsers(dest="name", required=True)

    p = names.add_parser("five-point")
    for flag in ("--a", "--b", "--c", "--eps"):
        p.add_argument(flag, type=float, required=True)

    p = names.add_parser("chain")
    p.add_argument("--s", type=float, required=True, help="sphere radius")
    p.add_argument("--d", type=float, required=True, help="hop length")
    p.add_argument("--gap", type=float, required=True, help="endpoint distance")
    p.add_argument("--dim", type=int, default=3)

    p = names.add_parser("regular-simplex")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=float, required=True)

    p = names.add_parser("path")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)

    p = names.add_parser("product")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--y", type=float, required=True)

    p = names.add_parser("grid")
    p.add_argument("--spec")
    p.add_argument("--regular-k", type=int, default=3)
    p.add_argument("--side", type=float, default=1.0)
    p.add_argument("--m", type=int, default=2, help="subdivision count per edge")
    p.add_argument("--eps", type=float, required=True)

    p = names.add_parser("hinge")
    _add_tetra_source(p)
    p.add_argument("--phi", type=float, help="hinge angle, default theta")

    p = names.add_parser("dense-quad")
    _add_tetra_source(p)

    p = names.add_parser("link")
    _add_tetra_source(p)
    p.add_argument("--offset", type=float, default=0.0, help="x-shift of the far copy")
    p.add_argument("--corner-angle", type=float)

    p = names.add_parser("x1")
    _add_tetra_source(p)
    p.add_argument("--corner-angle", type=float)

    p = names.add_parser("anchor-gadget")
    _add_tetra_source(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--edge", type=int, nargs=2)
    p.add_argument("--corner-angle", type=float)

    p = names.add_parser("contract")
    p.add_argument("--spec")
    p.add_argument("--regular-k", type=int, default=4)
    p.add_argument("--side", type=float, default=1.0)
    p.add_argument("--eps", type=float, required=True)

    for p in names.choices.values():
        p.add_argument("-o", "--output", required=True)

    copies = verbs.add_parser("copies", help="enumerate congruent copies in a configuration")
    copies.add_argument("config")
    copies.add_argument("--spec", required=True)
    copies.add_argument("-o", "--output", required=True)

    solve = verbs.add_parser("solve", help="run the coloring search on a problem file")
    solve.add_argument("problem")
    solve.add_argument("--budget", type=float, default=DEFAULT_BUDGET)
    solve.add_argument("-o", "--output", required=True)

    scan = verbs.add_parser("scan", help="run an exhaustive logic scan")
    scan.add_argument("kind", choices=["five-point", "classification"])
    scan.add_argument("--r", type=int, required=True)
    scan.add_argument("-o", "--output", required=True)

    report = verbs.add_parser("report", help="summarize an artifact file")
    report.add_argument("file")

    return parser


_HANDLERS = {
    "construct": _cmd_construct,
    "copies": _cmd_copies,
    "solve": _cmd_solve,
    "scan": _cmd_scan,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.verb](args)
    except BudgetExceeded as err:
        print(f"INDETERMINATE: {err}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as err:  # exit 1 is reserved for verified findings
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
