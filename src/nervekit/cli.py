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
import operator
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, metric
from .cover import Cover, CoverError, build_ball_cover, goodness_report
from .homology import nerve_matches_space
from .metric import (FiniteMetricSpace, MetricError, PointMap,
                     check_approximation, gh_distance_bound,
                     gh_distance_exhaustive)
from .nerve import nerve_of
from .stability import (GluingConfig, build_gluing_atlas, glue_maps,
                        homotopy_equivalence_via_nerves, lift_cover)


def _key(k) -> str:
    """A dict key as json coerces it: a number, bool or None as its value."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return _dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _float(o: float) -> str:
    if o != o:
        return "NaN"
    if o == math.inf:
        return "Infinity"
    if o == -math.inf:
        return "-Infinity"
    return float.__repr__(o)


# the values ``_column`` writes inline, by exact type
_INLINE = {str: encode_basestring_ascii, int: int.__repr__, float: _float,
           bool: {True: "true", False: "false"}.__getitem__,
           type(None): {None: "null"}.__getitem__}


def _dumps(o, nl: str = "\n") -> str:
    """``json.dumps(o, sort_keys=True, indent=2)``, byte for byte, for a
    value whose closing bracket goes after nl.

    With an indent, json runs its pure-Python encoder, a generator per
    container; this is one recursion that returns strings, with json's type
    order, key coercion and errors (a circular value recurses until
    ``RecursionError`` instead of json's ``ValueError``).  A list whose
    first item is a dict with str keys goes through ``_rows``."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    inner = nl + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        if all(type(v) is int for v in o):
            parts = map(int.__repr__, o)
        elif type(o[0]) is dict and o[0] and all(type(k) is str for k in o[0]):
            parts = _rows(o, inner)
        else:
            parts = [_dumps(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(parts) + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        parts = [encode_basestring_ascii(_key(k)) + ": " + _dumps(v, inner)
                 for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(parts) + nl + "}"
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _rows(rows, nl: str) -> list:
    """``_dumps`` of each item of rows, whose first item is a dict with str
    keys, after nl.  The dicts with the first one's keys are written through
    one template built from its sorted keys, filled a column at a time by
    ``_column``, in blocks of rows whose strings take about ``BUDGET`` bytes
    (some 128 per value); other items go through ``_dumps``.  Where a value
    raises, everything goes through ``_dumps``, which raises for json's
    first bad value in row order."""
    keys = sorted(rows[0])
    inner = nl + "  "
    template = "{" + ",".join(inner + encode_basestring_ascii(k).replace("%", "%%") + ": %s"
                              for k in keys) + nl + "}"
    shared = rows[0].keys()
    fits = [type(row) is dict and row.keys() == shared for row in rows]
    picked = [row for row, fit in zip(rows, fits) if fit]
    step = max(1, metric.BUDGET // (128 * len(keys)))  # strings of about BUDGET bytes
    filled = []
    try:
        for a in range(0, len(picked), step):
            block = picked[a:a + step]
            columns = [_column(list(map(operator.itemgetter(k), block)), inner) for k in keys]
            filled += map(template.__mod__, zip(*columns))
        filled = iter(filled)
        return [next(filled) if fit else _dumps(row, nl) for row, fit in zip(rows, fits)]
    except (TypeError, ValueError):
        return [_dumps(row, nl) for row in rows]


def _column(values: list, nl: str) -> list:
    """``_dumps`` of each of values after nl: inline when all of them are of
    one exact type among bool, int, float, str and None, or are nonempty
    lists of exact ints."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind in _INLINE:
        return list(map(_INLINE[kind], values))
    if (kind is list and all(values)
            and set(map(type, itertools.chain.from_iterable(values))) == {int}):
        inner = nl + "  "
        return ["[" + inner + ("," + inner).join(map(int.__repr__, v)) + nl + "]"
                for v in values]
    return [_dumps(v, nl) for v in values]


def _emit(obj: dict, path: str, args: argparse.Namespace):
    obj = dict(obj)
    obj["config"] = {
        k: v for k, v in sorted(vars(args).items()) if k != "func"
    }
    obj["version"] = __version__
    text = _dumps(obj)
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
