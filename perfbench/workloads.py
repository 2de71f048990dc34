"""The benchmark's three workloads: seeded inputs, one timed pass each, and
the checks that decide whether a pass (or a trace) produced a correct result.

Every workload is single-process and closed-loop: the runner times
``run(inputs)``, then calls ``check(inputs, output)`` outside the timed
region.  Inputs are raw coordinates, matrices and files; everything nervekit
validates is validated inside the pass, as a command-line user pays for it
on every call.  See README.md for why each workload exists.
"""
from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import nervekit as nk
import nervekit.cli  # noqa: F401  (cli and samples are not loaded by the package)
import nervekit.samples  # noqa: F401

SPHERE_N = 200
SPHERE_JITTER = 0.01
COVER_RADIUS = 0.7
# Sphere samples are drawn until their ball cover has this many nonempty
# intersections: the middle ~30% of SPHERE_N-point samples.  Pass time
# follows that count; without the band it varies 2-3x between samples.
SIZE_BAND = (4700, 5400)
ROW_SUM_TOL = 1e-12
SPHERE_BETTI = (1, 0, 1)


@dataclass
class Checked:
    """Outcome of checking one pass: operations attempted and failed."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def op(self, problems):
        """Count one operation, failed when ``problems`` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append("; ".join(problems))


WARMUP = 0  # stream of the tiny warm-up inputs


def _rng(*keys: int) -> np.random.Generator:
    return np.random.default_rng(list(keys))


def jittered_sphere(n: int, rng: np.random.Generator):
    """Fibonacci lattice on the unit 2-sphere, jittered and pushed back onto it."""
    c = nk.samples.sphere_coords(n) + rng.normal(scale=SPHERE_JITTER, size=(n, 3))
    return c / np.linalg.norm(c, axis=1)[:, None]


def pairwise(coords) -> np.ndarray:
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


def ball_cover_sets(dist, radius: float, seed: int) -> list:
    """The sets of ``build_ball_cover(space, radius, seed)``, recomputed
    independently: open balls around a greedy radius/2-net taken in a seeded
    order."""
    blocked = np.zeros(len(dist), dtype=bool)
    net = []
    for x in np.random.default_rng(seed).permutation(len(dist)):
        if not blocked[x]:
            net.append(x)
            blocked |= dist[x] < radius / 2.0
    return [np.flatnonzero(dist[c] < radius).tolist() for c in net]


def banded_sphere(max_order, *keys: int) -> dict:
    """The first jittered sphere of the stream ``keys`` whose ball cover has
    a SIZE_BAND number of nonempty intersections of at most max_order sets
    (of any number of sets when max_order is None)."""
    for attempt in range(10_000):
        rng = _rng(*keys, attempt)
        coords = jittered_sphere(SPHERE_N, rng)
        cover_seed = int(rng.integers(2**31))
        sets = ball_cover_sets(pairwise(coords), COVER_RADIUS, cover_seed)
        multiplicity = int(np.bincount(np.concatenate(sets)).max())
        size = count_intersections(sets, max_order or multiplicity)
        if SIZE_BAND[0] <= size <= SIZE_BAND[1]:
            return {"coords": coords, "cover_seed": cover_seed, "sets": sets,
                    "multiplicity": multiplicity, "size": size}
    raise RuntimeError(f"no sphere sample with a cover size in {SIZE_BAND}")


def count_intersections(sets, max_order: int) -> int:
    """Number of nonempty intersections of at most max_order sets, by a
    depth-first walk over integer bitsets (independent of nervekit)."""
    masks = [sum(1 << x for x in s) for s in sets]
    total = 0
    stack = [(0, -1, 0)]  # (depth, last index, running intersection)
    while stack:
        depth, last, mask = stack.pop()
        for j in range(last + 1, len(masks)):
            meet = masks[j] if depth == 0 else mask & masks[j]
            if meet:
                total += 1
                if depth + 1 < max_order:
                    stack.append((depth + 1, j, meet))
    return total


class Workload:
    """One workload: ``__init__`` is the set-up (first inputs, warm caches),
    ``inputs(i)`` makes the inputs of pass i, ``run`` is the timed pass."""

    name = ""
    stream = 0

    def final_check(self) -> Checked:
        """Checks that need the whole run, made once after the last pass."""
        return Checked()

    def layer_counts(self, out: dict) -> dict:
        """Per-layer counts only the benchmark can see, for traced passes."""
        return {}


class SphereNerve(Workload):
    """Sample -> cover -> full nerve -> maximal simplices -> partition of
    unity -> homology check, on a fresh seeded sphere sample every pass."""

    name = "sphere-nerve"
    stream = 1
    vr_scale = 0.42  # above the sample spacing, below the scale that fills the sphere

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.first = self.inputs(0)
        tiny = dict(self.first, coords=jittered_sphere(40, _rng(seed, WARMUP, self.stream)))
        self.run(tiny)  # first-use costs of numpy and networkx

    def inputs(self, i: int) -> dict:
        return banded_sphere(None, self.seed, self.stream, i)

    def run(self, inp: dict) -> dict:
        space = nk.metric.FiniteMetricSpace.from_coords(inp["coords"])
        cover = nk.cover.build_ball_cover(space, COVER_RADIUS, seed=inp["cover_seed"])
        # the whole nerve: a fixed max_dim below the multiplicity truncates it
        multiplicity = int(cover.multiplicities().max())
        nerve = nk.nerve.nerve_of(cover, max_dim=multiplicity - 1)
        maximal = nerve.maximal_simplices()
        pou = nk.partition.PartitionOfUnity(cover)
        verify = nk.homology.nerve_matches_space(cover, self.vr_scale, max_dim=3)
        return {"multiplicity": multiplicity, "nerve": nerve, "maximal": maximal,
                "pou": pou.values, "verify": verify}

    def check(self, inp: dict, out: dict) -> Checked:
        problems = []
        verify = out["verify"]
        if verify.nerve_betti.ranks != SPHERE_BETTI:
            problems.append(f"nerve Betti {verify.nerve_betti.ranks}")
        if verify.space_betti.ranks != SPHERE_BETTI:
            problems.append(f"VR Betti {verify.space_betti.ranks}")
        sums = np.asarray(out["pou"]).sum(axis=1)
        if not np.all(np.abs(sums - 1.0) <= ROW_SUM_TOL):
            problems.append(f"partition row sum off by {np.abs(sums - 1.0).max():.3g}")
        nerve = out["nerve"]
        if (out["multiplicity"], len(nerve.simplices)) != (inp["multiplicity"], inp["size"]):
            problems.append(f"multiplicity {out['multiplicity']} and {len(nerve.simplices)} "
                            f"simplices, expected {inp['multiplicity']} and {inp['size']}")
        maximal = out["maximal"]
        if not maximal or any(not nerve.contains(s) for s in maximal) \
                or max(len(s) for s in maximal) != nerve.dim + 1:
            problems.append("maximal simplices do not match the nerve")
        checked = Checked()
        checked.op(problems)
        return checked


class SphereGoodness(Workload):
    """``nervekit cover SPACE --radius 0.7 --seed S --report ...`` in-process
    on a fresh seeded sphere matrix every pass; thousands of tiny
    validation, Vietoris-Rips and Betti calls inside one CLI call."""

    name = "sphere-goodness"
    stream = 2
    max_order = 8  # the CLI default

    def __init__(self, seed: int, workdir: str):
        self.seed, self.workdir = seed, workdir
        self.first = self.inputs(0)
        self.first_report = None
        tiny = dict(self.first, space=self._write(
            "warmup", pairwise(jittered_sphere(30, _rng(seed, WARMUP, self.stream)))))
        self.run(tiny)  # first-use costs of numpy, networkx and argparse

    def _write(self, tag: str, dist) -> str:
        path = os.path.join(self.workdir, f"space-{tag}.json")
        with open(path, "w") as fh:
            json.dump({"dist": dist.tolist()}, fh)
        return path

    def inputs(self, i: int) -> dict:
        sample = banded_sphere(self.max_order, self.seed, self.stream, i)
        return {"space": self._write("input", pairwise(sample["coords"])),
                "cover_seed": sample["cover_seed"], "sets": sample["sets"],
                "size": sample["size"], "index": i}

    def run(self, inp: dict) -> dict:
        cover_path = os.path.join(self.workdir, "cover.json")
        report_path = os.path.join(self.workdir, "report.json")
        code = nk.cli.main(["cover", inp["space"], "--radius", str(COVER_RADIUS),
                            "--seed", str(inp["cover_seed"]), "--out", cover_path,
                            "--report", report_path])
        return {"code": code, "cover": cover_path, "report": report_path}

    @staticmethod
    def read(out: dict):
        """The report bytes and the cover's sets, as the CLI wrote them."""
        with open(out["report"], "rb") as fh:
            report = fh.read()
        with open(out["cover"]) as fh:
            sets = json.load(fh)["sets"]
        return report, sets

    def check(self, inp: dict, out: dict) -> Checked:
        checked = Checked()
        if out["code"] != 0:
            checked.op([f"exit code {out['code']}"])
            return checked
        problems = []
        report_bytes, sets = self.read(out)
        report = json.loads(report_bytes)
        if report.get("pass") is not True:
            problems.append("report does not pass")
        if sets != inp["sets"]:
            problems.append("saved cover differs from the recomputed ball cover")
        if len(report.get("entries", ())) != inp["size"]:
            problems.append(f"{len(report.get('entries', ()))} entries, expected {inp['size']}")
        if inp.get("index") == 0:
            self.first_report = report_bytes
        checked.op(problems)
        return checked

    def final_check(self) -> Checked:
        """Run the first instance again: the report must be byte-identical."""
        checked = Checked()
        if self.first_report is not None:
            again, _sets = self.read(self.run(self.inputs(0)))
            checked.op([] if again == self.first_report else ["report bytes differ on a rerun"])
        return checked

    def layer_counts(self, out: dict) -> dict:
        return {"cli.report_bytes": os.path.getsize(out["report"])}


class Maps(Workload):
    """The point-by-point maps: composite cylinder retractions, the
    stability pipeline with a GH bracket, and chart gluing."""

    name = "maps"
    stream = 3
    L = nk.cone.DEFAULT_L

    def __init__(self, seed: int, workdir: str, traces: int = 3000,
                 circle_n: int = 256, grid_m: int = 21):
        rng = _rng(seed, self.stream, 0)
        axes = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
                        dtype=float)
        octa = np.vstack([axes, jittered_sphere(194, rng)])
        cover, cyl, cons = self._cylinder(octa)
        self.first = {"octa": octa, "points": self._cylinder_points(rng, cover, cyl, traces)}
        self.first.update(self._stability_inputs(rng, circle_n))
        self.first.update(self._gluing_inputs(rng, grid_m))
        # first-use cost: the retraction blend grids, built per simplex size
        for p in self.first["points"][:200]:
            nk.retraction.full_cylinder_retraction(cyl, cons, p)

    def _cylinder(self, octa):
        """The octahedral cover of the six axis points plus a sphere sample
        (axis-centred balls of radius 1.1, whose nerve is the octahedron's
        boundary), its cylinder and its contractions."""
        space = nk.metric.FiniteMetricSpace.from_coords(octa)
        cover = nk.cover.Cover(space, tuple(space.ball(c, 1.1) for c in range(6)),
                               tuple(range(6)), radius_hint=(1.1,) * 6)
        cyl = nk.cone.CylinderSpace(cover, L=self.L)
        return cover, cyl, nk.retraction.build_contractions(cover, self.L)

    def _cylinder_points(self, rng, cover, cyl, traces: int) -> list:
        """Seeded cylinder points: a uniform nerve simplex, Dirichlet weights,
        a base in its intersection and a height in [0, L)."""
        simplices = sorted(tuple(sorted(s)) for s in cyl.nerve.simplices)
        points = []
        for _ in range(traces):
            sigma = simplices[rng.integers(len(simplices))]
            weights = rng.dirichlet(np.ones(len(sigma)))
            members = sorted(frozenset.intersection(*(cover.sets[j] for j in sigma)))
            base = int(members[rng.integers(len(members))])
            points.append(nk.cone.CylinderPoint(
                nk.complex.BarycentricPoint(dict(zip(sigma, weights))),
                nk.cone.ConePoint(base, float(rng.uniform(0.0, self.L)))))
        return points

    @staticmethod
    def _stability_inputs(rng, n: int) -> dict:
        """A circle sample, and a jittered, relabeled copy as the target."""
        ang = 2.0 * np.pi * np.arange(n) / n
        src = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        radius = 2.0 * math.sin(math.radians(35.0))
        centers = (0, n // 3, (2 * n) // 3)
        d = pairwise(src)
        mesh = max(float(d[np.ix_(m, m)].max())
                   for m in (np.flatnonzero(d[c] < radius) for c in centers))
        perm = rng.permutation(n)
        tgt = (src + rng.uniform(-1.0, 1.0, size=src.shape) * mesh / 25.0)[perm]
        return {"circle": src, "circle_target": tgt, "relabel": np.argsort(perm),
                "arc_radius": radius, "arc_centers": centers, "epsilon": mesh / 5.0,
                "gh_seed": int(rng.integers(2**31))}

    @staticmethod
    def _gluing_inputs(rng, m: int) -> dict:
        """A strained m x m grid; a 5 x 5 block D at a seeded place whose
        inner map shifts one step in a seeded direction."""
        space, pairs = nk.samples.grid_with_strainers(m)
        r0, c0 = (int(v) for v in rng.integers(6, m - 10, size=2))
        D = frozenset((r0 + i) * m + c0 + j for i in range(5) for j in range(5))
        step = [(0, 1), (0, -1), (1, 0), (-1, 0)][int(rng.integers(4))]
        return {"grid": np.array(space.dist), "grid_m": m, "pairs": pairs, "D": D,
                "step": step, "mu": 2.0, "deltaR": 3.0, "t_grid": (0.0, 0.25, 0.5, 0.75, 1.0)}

    def inputs(self, i: int) -> dict:
        return self.first

    @staticmethod
    def shift(x: int, m: int, step) -> int:
        if x >= m * m:
            return x
        r, c = divmod(x, m)
        r2, c2 = r + step[0], c + step[1]
        return r2 * m + c2 if 0 <= r2 < m and 0 <= c2 < m else x

    def run(self, inp: dict) -> dict:
        _cover, cyl, cons = self._cylinder(inp["octa"])
        traces, latency = [], []
        for p in inp["points"]:
            t0 = time.perf_counter()
            tr = nk.retraction.full_cylinder_retraction(cyl, cons, p)
            latency.append(time.perf_counter() - t0)
            traces.append((tr.membership_ok, tr.ends_in_base, len(tr.stages)))

        src = nk.metric.FiniteMetricSpace.from_coords(inp["circle"])
        r = inp["arc_radius"]
        arcs = nk.cover.Cover(src, tuple(src.ball(c, r) for c in inp["arc_centers"]),
                              inp["arc_centers"], radius_hint=(r, r, r))
        tgt = nk.metric.FiniteMetricSpace.from_coords(inp["circle_target"])
        cert = nk.metric.check_approximation(
            nk.metric.PointMap(src, tgt, inp["relabel"]), inp["epsilon"])
        lift = nk.stability.lift_cover(arcs, cert)
        equivalence = nk.stability.homotopy_equivalence_via_nerves(lift)
        gh = nk.metric.gh_distance_bound(src, tgt, trials=16, seed=inp["gh_seed"])

        grid = nk.metric.FiniteMetricSpace(inp["grid"])
        m, step = inp["grid_m"], inp["step"]
        config = nk.stability.GluingConfig(grid, inp["D"], mu=inp["mu"])
        g = {x: self.shift(x, m, step) for x in config.D1}
        f = nk.metric.PointMap(grid, grid, np.arange(grid.n))
        blend = [x for x in range(grid.n) if 0.0 < config.d(x) < config.mu]
        atlas = nk.stability.build_gluing_atlas(grid, grid, blend, inp["deltaR"],
                                                inp["pairs"], inp["pairs"], g, delta=0.3)
        glued, _report = nk.stability.glue_maps(f, g, config, atlas)
        homotopy = nk.stability.glue_homotopies(
            lambda x, k: x, lambda x, k: x if k == 0 else g[x],
            config, atlas, inp["t_grid"])
        return {"traces": traces, "latency": latency, "equivalence": equivalence,
                "gh": gh, "g": g, "glued": np.array(glued.image), "homotopy": homotopy}

    def check(self, inp: dict, out: dict) -> Checked:
        checked = Checked()
        for membership_ok, ends_in_base, _stages in out["traces"]:
            checked.op(([] if membership_ok else ["trace left the cylinder"])
                       + ([] if ends_in_base else ["trace did not end in the base"]))
        problems = []
        eq = out["equivalence"]
        for flag in ("membership_ok", "within_10_mesh", "within_100_mesh"):
            if not getattr(eq, flag):
                problems.append(f"equivalence {flag} is false")
        lower, upper = out["gh"]
        if not lower <= upper:
            problems.append(f"GH bracket [{lower}, {upper}] is empty")
        dist_to_d = inp["grid"][:, sorted(inp["D"])].min(axis=1)
        g, glued, hom = out["g"], out["glued"], out["homotopy"]
        identity = np.arange(len(glued))
        inner = sorted(inp["D"])
        outside_d0 = np.flatnonzero(dist_to_d > inp["mu"])
        outside_d1 = np.flatnonzero(dist_to_d > 2.0 * inp["mu"])
        if any(glued[x] != g[x] for x in inner):
            problems.append("glued map differs from g on D")
        if np.any(glued[outside_d0] != identity[outside_d0]):
            problems.append("glued map differs from f off D0")
        for k in range(len(inp["t_grid"])):
            if any(hom[x, k] != (x if k == 0 else g[x]) for x in inner):
                problems.append(f"glued homotopy differs from H on D at step {k}")
            if np.any(hom[outside_d1, k] != outside_d1):
                problems.append(f"glued homotopy differs from F off D1 at step {k}")
        checked.op(problems)
        return checked


WORKLOADS = {w.name: w for w in (SphereNerve, SphereGoodness, Maps)}
