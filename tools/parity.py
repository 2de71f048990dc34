"""Check that this checkout's ``src/`` computes what a git ref's ``src/`` does.

    python3 tools/parity.py REF

exports REF's ``src/`` with ``git archive``, then runs that tree and this
checkout's ``src/`` each in a fresh process on the same fixed, seeded
inputs, in an emptied temporary directory under the same relative paths, so
that the ``config`` of CLI reports matches byte for byte and the digests
do not depend on where the directory is.  Each run hashes every component
with sha256:

- ``maps``, seeds 1 and 2, on the benchmark's inputs (``perfbench/workloads.py``):
  the JSON of all 3,000 cylinder retraction traces, the equivalence report,
  the GH bracket, the glued map and the glued homotopy, and the
  contractions of the octahedral cover and of the three-arc circle cover
  (each key, center and sorted path map)
- ``maps/blend-grid``: the low-landing and high-landing nodes of the
  height-blend grid, ``_BlendGrid(k, L).low`` and ``.high``, for k = 2 to 6
  at L = 7 and 9.5 (the traces above reach k <= 3 only)
- ``maps/off-grid``: the values of s that 16-step traces never reach, on
  seed 1's 3,000 cylinder points: ``simplexwise_retraction`` and
  ``cone_retraction_phi`` at s = 0, 0.3, 0.55, 0.7 and 1 (the simplex
  point and the cone point of each), and the JSON of each point's trace at
  ``n_steps`` 1 and 3
- ``sphere-nerve``, seeds 1 and 2: the partition of unity's bytes, the
  nerve and its maximal simplices, the verify report, the Vietoris-Rips
  complex at the verify scale up to dimension 3, the cover's
  intersections, multiplicities, mesh and memberships, and its
  contractions, many of which share one member set
- ``sphere-goodness``, seeds 1 and 2: the bytes of the CLI ``cover`` report
- CLI ``cover``, ``nerve``, ``verify``, ``gh``, ``stability`` and ``glue``
  on well-formed inputs, accepted and rejected: exit code, stderr and the
  bytes of every file written.  ``cover-sphere`` is ``cover`` on
  ``sphere_coords(1000)`` at r = 0.7, seed 1, whose report has 32
  non-contractible entries of 47,679 and exits 1.  ``nerve-whole`` is
  ``nerve`` without ``--max-dim`` on ten whole-space sets of a 12-point
  line, whose whole nerve is the 9-simplex and whose 8-skeleton is its
  boundary.  Four runs hash a rejection, its exit code and stderr:
  ``stability-rejected`` (epsilon below the distortion), ``glue-no-g-center``
  (``g`` undefined at the first chart center), ``glue-deltaR-0`` and
  ``nerve-cover-no-sets`` (a cover JSON without ``sets``)
- ``metric/edge``: the stored matrix or the error message of validating two
  matrices at the tolerance edge, one whose negative diagonal makes its
  stored (0,1,0) triangle fail and one skewed triangle whose stored defect
  is within ``METRIC_TOL``
- ``metric/kernel``: the stored matrix or the error message of validating
  two matrices that no coordinates reproduce, so that the triangle kernel
  checks them: ``tree_space(60)``, accepted, and the same matrix with one
  entry lengthened past its path in the tree, rejected with its witness

It prints one line per component with both digests and exits 1 when any
differs (or is missing on one side), 0 otherwise.
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.abspath(os.path.join(HERE, os.pardir))
SEEDS = (1, 2)


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _array(a) -> bytes:
    import numpy as np

    a = np.ascontiguousarray(a)
    return f"{a.dtype.str}{a.shape}".encode() + a.tobytes()


def _contractions(cons: dict) -> str:
    return _json([[sorted(key), con.center, sorted(con.paths.items())]
                  for key, con in cons.items()])


def _maps(seed: int, workdir: str, out: dict):
    import nervekit as nk
    from perfbench.workloads import Maps

    workload = Maps(seed, workdir)
    inp = workload.first
    tag = f"maps/seed{seed}"
    _cover, cyl, cons = workload._cylinder(inp["octa"])
    out[f"{tag}/contractions_octa"] = _sha(_contractions(cons))
    circle = nk.metric.FiniteMetricSpace.from_coords(inp["circle"])
    r = inp["arc_radius"]
    arcs = nk.cover.Cover(circle, tuple(circle.ball(c, r) for c in inp["arc_centers"]),
                          inp["arc_centers"], radius_hint=(r, r, r))
    out[f"{tag}/contractions_arcs"] = _sha(_contractions(
        nk.retraction.build_contractions(arcs, workload.L)))
    traces = hashlib.sha256()
    for p in inp["points"]:
        trace = nk.retraction.full_cylinder_retraction(cyl, cons, p)
        traces.update(_json(trace.to_json()).encode() + b"\n")
    out[f"{tag}/traces"] = traces.hexdigest()
    res = workload.run(inp)
    out[f"{tag}/equivalence"] = _sha(_json(res["equivalence"].to_json()))
    out[f"{tag}/gh_bracket"] = _sha(repr(res["gh"]))
    out[f"{tag}/glued_map"] = _sha(_array(res["glued"]))
    out[f"{tag}/glued_homotopy"] = _sha(_array(res["homotopy"]))


def _off_grid(workdir: str, out: dict):
    import nervekit as nk
    from perfbench.workloads import Maps

    workload = Maps(SEEDS[0], workdir)
    _cover, cyl, cons = workload._cylinder(workload.first["octa"])
    rt = nk.retraction
    digest = hashlib.sha256()
    for p in workload.first["points"]:
        supp = p.theta.support
        for s in (0.0, 0.3, 0.55, 0.7, 1.0):
            theta, cone = rt.simplexwise_retraction(supp, cons[supp], p.theta, p.cone, s,
                                                    workload.L)
            phi = rt.cone_retraction_phi(cons[supp], p.cone, s)
            digest.update(_json([theta.to_json(), [cone.base, cone.t], [phi.base, phi.t]])
                          .encode() + b"\n")
        for n_steps in (1, 3):
            trace = rt.full_cylinder_retraction(cyl, cons, p, n_steps=n_steps)
            digest.update(_json(trace.to_json()).encode() + b"\n")
    out["maps/off-grid"] = digest.hexdigest()


def _blend_grid(out: dict):
    from nervekit.retraction import _BlendGrid

    grids = hashlib.sha256()
    for L in (7.0, 9.5):
        for k in range(2, 7):
            grid = _BlendGrid(k, L)
            grids.update(_array(grid.low) + _array(grid.high))
    out["maps/blend-grid"] = grids.hexdigest()


def _sphere_nerve(seed: int, workdir: str, out: dict):
    import nervekit as nk
    from perfbench.workloads import COVER_RADIUS, SphereNerve

    workload = SphereNerve(seed, workdir)
    inp = workload.first
    tag = f"sphere-nerve/seed{seed}"
    res = workload.run(inp)
    out[f"{tag}/pou"] = _sha(_array(res["pou"]))
    out[f"{tag}/nerve"] = _sha(_json(res["nerve"].to_json()))
    out[f"{tag}/maximal"] = _sha(_json(res["maximal"]))
    out[f"{tag}/verify"] = _sha(_json(res["verify"].to_json()))

    space = nk.metric.FiniteMetricSpace.from_coords(inp["coords"])
    cover = nk.cover.build_ball_cover(space, COVER_RADIUS, seed=inp["cover_seed"])
    records = [(sorted(r.indices), sorted(r.members), r.center)
               for r in nk.cover.intersections(cover, res["multiplicity"])]
    out[f"{tag}/intersections"] = _sha(_json(records))
    out[f"{tag}/contractions"] = _sha(_contractions(
        nk.retraction.build_contractions(cover, nk.cone.DEFAULT_L)))
    out[f"{tag}/multiplicities"] = _sha(_array(cover.multiplicities()))
    out[f"{tag}/mesh"] = _sha(repr(cover.mesh()))
    out[f"{tag}/vr"] = _sha(_json(nk.homology.vr_complex(space, workload.vr_scale, 3).to_json()))
    out[f"{tag}/membership"] = _sha(_json([sorted(cover.membership(x))
                                           for x in range(space.n)]))


def _sphere_goodness(seed: int, workdir: str, out: dict):
    from perfbench.workloads import SphereGoodness

    workload = SphereGoodness(seed, workdir)
    res = workload.run(workload.first)
    report, _sets = SphereGoodness.read(res)
    out[f"sphere-goodness/seed{seed}/report"] = _sha(bytes([res["code"]]) + report)


def _validated(matrices) -> str:
    """The digest of each matrix's stored matrix, or of its error message."""
    import numpy as np

    from nervekit.metric import FiniteMetricSpace, MetricError

    outcomes = []
    for d in matrices:
        try:
            outcomes.append(_array(FiniteMetricSpace(np.array(d)).dist))
        except MetricError as exc:
            outcomes.append(str(exc).encode())
    return _sha(b"\0".join(outcomes))


def _metric(out: dict):
    from nervekit.samples import tree_space

    out["metric/edge"] = _validated((
        [[-1e-9, -1e-9, 0.6], [-1e-9, -1e-9, 0.6], [0.6, 0.6, -1e-9]],
        [[0.0, 1.0, 2.0 + 1.2e-9], [1.0, 0.0, 1.0], [2.0 + 0.4e-9, 1.0, 0.0]]))
    tree = tree_space(60).dist
    longer = tree.copy()
    longer[7, 41] = longer[41, 7] = tree[7, 41] + 0.5  # its path runs through 9
    out["metric/kernel"] = _validated((tree, longer))


def _cli_inputs(workdir: str) -> dict:
    """Spaces, covers and gluing regions for the CLI runs, as files."""
    import math

    import numpy as np

    import nervekit as nk
    import nervekit.samples  # noqa: F401  (not loaded by the package)

    paths = {}

    def write(name, obj):
        paths[name] = os.path.join(workdir, name)
        with open(paths[name], "w") as fh:
            json.dump(obj, fh)

    circle = nk.samples.circle_space(32)
    write("circle.json", circle.to_json())
    rng = np.random.default_rng(7)
    ang = 2.0 * np.pi * np.arange(32) / 32
    coords = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    jitter = coords + rng.uniform(-0.01, 0.01, size=coords.shape)
    write("jittered.json", {"coords": jitter.tolist()})
    r = 2.0 * math.sin(math.radians(35.0))
    centers = (0, 10, 21)
    arcs = nk.cover.Cover(circle, tuple(circle.ball(c, r) for c in centers), centers,
                          radius_hint=(r, r, r))
    write("arcs.json", arcs.to_json())
    measured = arcs.to_json()
    del measured["radius_hint"]
    write("arcs-measured.json", measured)
    octa = nk.samples.octahedron_space(60)
    write("octa.json", octa.to_json())
    write("octa-cover.json", nk.cover.Cover(
        octa, tuple(octa.ball(c, 1.1) for c in range(6)), tuple(range(6))).to_json())
    paths["mesh"] = arcs.mesh()
    write("sphere.json", {"coords": nk.samples.sphere_coords(1000).tolist()})
    line = nk.samples.line_space(12)
    write("line.json", line.to_json())
    write("line-cover.json", nk.cover.Cover(line, (frozenset(range(12)),) * 10,
                                            tuple(range(10))).to_json())
    write("cover-no-sets.json", {"centers": list(centers)})

    m = 9
    grid, pairs = nk.samples.grid_with_strainers(m)
    write("grid.json", grid.to_json())
    D = [i * m + j for i in range(3, 6) for j in range(3, 6)]
    near = np.flatnonzero(grid.dist[:, D].min(axis=1) <= 4.0).tolist()
    region = {"D": D, "mu": 2.0, "deltaR": 3.0, "g": {str(x): x for x in near},
              "source_pairs": [list(p) for p in pairs],
              "target_pairs": [list(p) for p in pairs], "delta": 0.3}
    write("region.json", region)
    shifted = dict(region, g={str(x): x + 1 if x < m * m and x % m < m - 1 else x
                              for x in near})
    write("region-shifted.json", shifted)
    write("region-coarse.json", dict(region, deltaR=0.5))
    write("region-deltaR-0.json", dict(region, deltaR=0))
    to_D = grid.dist[:, D].min(axis=1)
    center = int(np.flatnonzero((0.0 < to_D) & (to_D < 2.0))[0])  # the first chart center
    write("region-no-g-center.json",
          dict(region, g={k: v for k, v in region["g"].items() if k != str(center)}))
    return paths


def _cli(workdir: str, out: dict):
    import nervekit.cli

    p = _cli_inputs(workdir)
    mesh = p["mesh"]

    def at(name):
        return os.path.join(workdir, name)

    def read(name):
        with open(at(name), "rb") as fh:
            return name.encode() + b"\0" + fh.read()

    runs = {
        "cover": ["cover", p["circle.json"], "--radius", "0.9", "--seed", "1",
                  "--out", at("out-cover.json"), "--report", at("out-report.json")],
        "cover-octa": ["cover", p["octa.json"], "--radius", "1.2", "--seed", "2",
                       "--max-order", "4", "--out", at("out-cover.json"),
                       "--report", at("out-report.json")],
        "cover-sphere": ["cover", p["sphere.json"], "--radius", "0.7", "--seed", "1",
                         "--out", at("out-cover.json"), "--report", at("out-report.json")],
        "nerve": ["nerve", p["circle.json"], p["arcs.json"], "--out", at("out-nerve.json")],
        "nerve-octa": ["nerve", p["octa.json"], p["octa-cover.json"], "--max-dim", "2",
                       "--out", at("out-nerve.json")],
        "nerve-whole": ["nerve", p["line.json"], p["line-cover.json"],
                        "--out", at("out-nerve.json")],
        "verify": ["verify", p["circle.json"], p["arcs.json"], "--vr-scale", "0.6",
                   "--max-dim", "2", "--out", at("out-verify.json")],
        "verify-octa": ["verify", p["octa.json"], p["octa-cover.json"], "--vr-scale", "0.6",
                        "--out", at("out-verify.json")],
        "gh": ["gh", p["circle.json"], p["jittered.json"], "--trials", "4",
               "--out", at("out-gh.json")],
        "stability": ["stability", p["circle.json"], p["jittered.json"], p["arcs.json"],
                      "--epsilon", str(mesh / 8.0), "--out", at("out-stability.json")],
        "stability-measured": ["stability", p["circle.json"], p["circle.json"],
                               p["arcs-measured.json"], "--epsilon", str(mesh / 8.0),
                               "--out", at("out-stability.json")],
        "stability-coarse": ["stability", p["circle.json"], p["circle.json"], p["arcs.json"],
                             "--epsilon", str(mesh), "--out", at("out-stability.json")],
        "glue": ["glue", p["grid.json"], p["grid.json"], "--region", p["region.json"],
                 "--out", at("out-glue.json")],
        "glue-shifted": ["glue", p["grid.json"], p["grid.json"],
                         "--region", p["region-shifted.json"], "--out", at("out-glue.json")],
        "glue-coarse": ["glue", p["grid.json"], p["grid.json"],
                        "--region", p["region-coarse.json"], "--out", at("out-glue.json")],
        "stability-rejected": ["stability", p["circle.json"], p["jittered.json"], p["arcs.json"],
                               "--epsilon", "1e-06", "--out", at("out-stability.json")],
        "glue-no-g-center": ["glue", p["grid.json"], p["grid.json"],
                             "--region", p["region-no-g-center.json"],
                             "--out", at("out-glue.json")],
        "glue-deltaR-0": ["glue", p["grid.json"], p["grid.json"],
                          "--region", p["region-deltaR-0.json"], "--out", at("out-glue.json")],
        "nerve-cover-no-sets": ["nerve", p["circle.json"], p["cover-no-sets.json"],
                                "--out", at("out-nerve.json")],
    }
    for name, argv in runs.items():
        for stale in os.listdir(workdir):
            if stale.startswith("out-"):
                os.remove(at(stale))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as so:
            code = nervekit.cli.main(argv)
        written = b"".join(read(f) for f in sorted(os.listdir(workdir)) if f.startswith("out-"))
        out[f"cli/{name}"] = _sha(f"{code}\0{err.getvalue()}\0{so.getvalue()}\0".encode()
                                  + written)


def emit(src: str, workdir: str = os.curdir) -> dict:
    """Every component's digest for the nervekit under src, with inputs and
    outputs in workdir."""
    sys.path[:0] = [src, ROOT]
    import nervekit

    if os.path.dirname(nervekit.__file__) != os.path.join(src, "nervekit"):
        raise SystemExit(f"imported {nervekit.__file__}, not the tree under {src}")
    out = {}
    for seed in SEEDS:
        _maps(seed, workdir, out)
        _sphere_nerve(seed, workdir, out)
        _sphere_goodness(seed, workdir, out)
    _off_grid(workdir, out)
    _blend_grid(out)
    _cli(workdir, out)
    _metric(out)
    return out


def _export(ref: str, dest: str) -> str:
    """Extract ref's src/ under dest and return its path."""
    data = subprocess.run(["git", "-C", ROOT, "archive", ref, "src"],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")
    return os.path.join(dest, "src")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("ref", nargs="?", help="git ref whose src/ is the reference")
    p.add_argument("--emit", metavar="SRC", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.emit:
        print(json.dumps(emit(args.emit)))
        return 0
    if not args.ref:
        p.error("a git ref is required")
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"ref": _export(args.ref, os.path.join(tmp, "ref")),
                 "checkout": os.path.join(ROOT, "src")}
        workdir = os.path.join(tmp, "work")
        for side, src in trees.items():
            shutil.rmtree(workdir, ignore_errors=True)
            os.mkdir(workdir)
            run = subprocess.run([sys.executable, os.path.abspath(__file__), "--emit", src],
                                 cwd=workdir, check=True, capture_output=True, text=True,
                                 env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
            digests[side] = json.loads(run.stdout.splitlines()[-1])
    ref, here = digests["ref"], digests["checkout"]
    names = sorted(set(ref) | set(here))
    width = max(len(n) for n in names)
    for name in names:
        a, b = ref.get(name, "-"), here.get(name, "-")
        print(f"{name:<{width}}  {a[:16]}  {b[:16]}  {'same' if a == b else 'DIFFERS'}")
    bad = [n for n in names if ref.get(n) != here.get(n)]
    print(f"{len(names) - len(bad)} of {len(names)} components identical to {args.ref}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
