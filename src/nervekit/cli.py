"""Batch front-end: load spaces and covers, run the pipelines, emit reports.

Every subcommand writes a JSON report embedding the resolved configuration
and the package version, with sorted keys, so identical inputs and flags
produce byte-identical outputs.  Exit codes: 0 pass, 1 verification
mismatch, 2 validation or usage error.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .cover import Cover, CoverError, build_ball_cover, goodness_report
from .homology import nerve_matches_space
from .metric import (FiniteMetricSpace, MetricError, PointMap,
                     check_approximation, gh_distance_bound,
                     gh_distance_exhaustive)
from .nerve import nerve_of
from .stability import (GluingConfig, build_gluing_atlas, glue_maps,
                        homotopy_equivalence_via_nerves, lift_cover)


# the values ``_column`` writes inline, by exact type
_INLINE = {str: encode_basestring_ascii, int: int.__repr__,
           float: lambda o: float.__repr__(o) if math.isfinite(o) else json.dumps(o),
           bool: {True: "true", False: "false"}.__getitem__,
           type(None): {None: "null"}.__getitem__}


def _dumps(o, nl: str = "\n") -> str:
    """``json.dumps(o, sort_keys=True, indent=2)``, byte for byte, for a
    value whose closing bracket goes after nl.

    json escapes the newlines inside strings, so its text indents exactly by
    replacing each newline.  Two shapes skip json's encoder, which runs a
    generator per container once it indents: a nonempty dict with str keys,
    written key by key, and a list of such dicts with one set of keys, whose
    columns ``_column`` all write inline, filled into one row template.
    Everything else, errors included, is json's (a circular dict with str
    keys recurses until ``RecursionError`` instead of json's ``ValueError``)."""
    inner = nl + "  "
    if _str_keyed(o):
        parts = [encode_basestring_ascii(k) + ": " + _dumps(v, inner)
                 for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(parts) + nl + "}"
    if (type(o) is list and o and _str_keyed(o[0])
            and all(type(row) is dict and row.keys() == o[0].keys() for row in o)):
        keys, field = sorted(o[0]), inner + "  "
        columns = [_column([row[k] for row in o], field) for k in keys]
        if None not in columns:
            template = "{" + ",".join(field + encode_basestring_ascii(k).replace("%", "%%")
                                      + ": %s" for k in keys) + inner + "}"
            parts = map(template.__mod__, zip(*columns))
            return "[" + inner + ("," + inner).join(parts) + nl + "]"
    return json.dumps(o, sort_keys=True, indent=2).replace("\n", nl)


def _str_keyed(o) -> bool:
    return type(o) is dict and bool(o) and all(type(k) is str for k in o)


def _column(values: list, nl: str):
    """An iterator over values as ``_dumps`` writes each after nl, made as
    the row template is filled, when all are of one exact type among bool,
    int, float, str and None, or are nonempty lists of exact ints; else None."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind in _INLINE:
        return map(_INLINE[kind], values)
    if (kind is list and all(values)
            and set(map(type, itertools.chain.from_iterable(values))) == {int}):
        inner = nl + "  "
        return ("[" + inner + ("," + inner).join(map(int.__repr__, v)) + nl + "]"
                for v in values)
    return None


def _emit(obj: dict, path: str, args: argparse.Namespace):
    config = {k: v for k, v in vars(args).items() if k != "func"}
    text = _dumps({**obj, "config": config, "version": __version__})
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_cover(args) -> int:
    space = FiniteMetricSpace.load(args.space)
    cover = build_ball_cover(space, args.radius, seed=args.seed)
    report = goodness_report(cover, max_order=args.max_order)
    cover.save(args.out)
    _emit(report.to_json(), args.report, args)
    return 0 if report.ok else 1


def cmd_nerve(args) -> int:
    space = FiniteMetricSpace.load(args.space)
    cover = Cover.load(space, args.cover)
    K = nerve_of(cover, max_dim=args.max_dim)
    K.save(args.out)
    return 0


def cmd_verify(args) -> int:
    space = FiniteMetricSpace.load(args.space)
    cover = Cover.load(space, args.cover)
    report = nerve_matches_space(cover, args.vr_scale, max_dim=args.max_dim)
    _emit(report.to_json(), args.out, args)
    return 0 if report.matches else 1


def cmd_gh(args) -> int:
    X = FiniteMetricSpace.load(args.space_a)
    Y = FiniteMetricSpace.load(args.space_b)
    lower, upper = gh_distance_bound(X, Y, trials=args.trials, seed=args.seed)
    out = {"lower": lower, "upper": upper}
    if X.n <= 6 and Y.n <= 6:
        out["exact"] = gh_distance_exhaustive(X, Y)
    _emit(out, args.out, args)
    return 0


def cmd_stability(args) -> int:
    src = FiniteMetricSpace.load(args.space_a)
    tgt = FiniteMetricSpace.load(args.space_b)
    cover = Cover.load(src, args.cover)
    if src.n != tgt.n:
        print("stability pipeline needs equal sample sizes (identity map)",
              file=sys.stderr)
        return 2
    pmap = PointMap(src, tgt, np.arange(src.n))
    cert = check_approximation(pmap, args.epsilon)
    if not cert.ok:
        print(f"identity map is not an {args.epsilon}-approximation: "
              f"distortion {cert.distortion}, defect {cert.defect}",
              file=sys.stderr)
        return 2
    report = homotopy_equivalence_via_nerves(lift_cover(cover, cert))
    _emit(report.to_json(), args.out, args)
    ok = (report.membership_ok and report.within_10_mesh
          and report.within_100_mesh)
    return 0 if ok else 1


def cmd_glue(args) -> int:
    src = FiniteMetricSpace.load(args.space_a)
    tgt = FiniteMetricSpace.load(args.space_b)
    with open(args.region) as fh:
        region_cfg = json.load(fh)
    kinds = {list: "an array", dict: "an object", (int, float): "a number"}
    for key, kind in (("D", list), ("mu", (int, float)), ("deltaR", (int, float)), ("g", dict),
                      ("source_pairs", list), ("target_pairs", list)):
        if not (isinstance(region_cfg, dict) and isinstance(region_cfg.get(key), kind)):
            raise ValueError(f"region JSON needs {key!r}, {kinds[kind]}")
    config = GluingConfig(src, frozenset(region_cfg["D"]), float(region_cfg["mu"]))
    g = {int(k): int(v) for k, v in region_cfg["g"].items()}
    f_img = region_cfg.get("f")
    if f_img is None:
        if src.n != tgt.n:
            print("need an explicit f when sample sizes differ", file=sys.stderr)
            return 2
        f_img = list(range(src.n))
    f = PointMap(src, tgt, np.array(f_img, dtype=int))
    try:
        atlas = build_gluing_atlas(
            src, tgt, config.blend_zone, float(region_cfg["deltaR"]),
            [tuple(p) for p in region_cfg["source_pairs"]],
            [tuple(p) for p in region_cfg["target_pairs"]],
            g, delta=region_cfg.get("delta", 0.1),
        )
        glued, report = glue_maps(f, g, config, atlas)
    except (MetricError, CoverError, KeyError) as exc:
        print(f"gluing rejected: {exc}", file=sys.stderr)
        return 2
    exact_inner = all(glued(x) == g[x] for x in config.D)
    exact_outer = all(
        glued(x) == f(x) for x in range(src.n) if x not in config.D0
    )
    report.update({
        "image": glued.image.tolist(),
        "exact_on_D": exact_inner,
        "exact_outside_D0": exact_outer,
    })
    _emit(report, args.out, args)
    return 0 if exact_inner and exact_outer else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nervekit",
        description="cover, nerve and stability pipelines on finite metric spaces",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cover", help="build a ball cover and its goodness report")
    c.add_argument("space")
    c.add_argument("--radius", type=float, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--max-order", type=int, default=8)
    c.add_argument("--out", required=True)
    c.add_argument("--report", default="")
    c.set_defaults(func=cmd_cover)

    n = sub.add_parser("nerve", help="write the nerve of a cover")
    n.add_argument("space")
    n.add_argument("cover")
    n.add_argument("--max-dim", type=int,
                   help="keep only the skeleton of this dimension (default: whole nerve)")
    n.add_argument("--out", required=True)
    n.set_defaults(func=cmd_nerve)

    v = sub.add_parser("verify", help="compare nerve homology with a VR oracle")
    v.add_argument("space")
    v.add_argument("cover")
    v.add_argument("--vr-scale", type=float, required=True)
    v.add_argument("--max-dim", type=int, default=3)
    v.add_argument("--out", default="")
    v.set_defaults(func=cmd_verify)

    g = sub.add_parser("gh", help="Gromov-Hausdorff distance bracket")
    g.add_argument("space_a")
    g.add_argument("space_b")
    g.add_argument("--trials", type=int, default=16)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="")
    g.set_defaults(func=cmd_gh)

    s = sub.add_parser("stability", help="lift a cover and measure displacements")
    s.add_argument("space_a")
    s.add_argument("space_b")
    s.add_argument("cover")
    s.add_argument("--epsilon", type=float, required=True)
    s.add_argument("--out", default="")
    s.set_defaults(func=cmd_stability)

    gl = sub.add_parser("glue", help="glue a partial almost isometry into a map")
    gl.add_argument("space_a")
    gl.add_argument("space_b")
    gl.add_argument("--region", required=True,
                    help="JSON with D, mu, deltaR, g, strainer pairs")
    gl.add_argument("--out", default="")
    gl.set_defaults(func=cmd_glue)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MetricError, CoverError, OSError, ValueError, KeyError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
