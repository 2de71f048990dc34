"""Straightforward reference implementations of intersection enumeration,
the downward-closure check, maximal simplices, complement distances, the
per-point cutoff weights of the partition of unity, dense GF(2) homology,
Vietoris-Rips cliques, star-shapedness over every column, the goodness
report, its per-member-set proxy chain (submatrix validated again,
closure-checked complex, whole reduction), tree distances, the cylinder retraction replayed once per grid value, the
contraction paths walked afresh from every member, the radial projection
one coordinate at a time and the height-blend grid one projection per node,
the gather-based greedy Gromov-Hausdorff matching, the triangle check by one
broadcast per 32-row block, Euclidean distances by one broadcast, and the
per-point and per-set membership scans of covers, of the gluing domain and
its neighborhoods, of chart atlases and of the stability maps, and the
gluings' chart fold reading one chart's ball and cutoff at a time.  The tests
compare nervekit's bitset cover core, its linear complex checks,
``PartitionOfUnity``, its sparse homology core, ``goodness_report``,
its proxy Betti numbers and star check,
``tree_space``, ``full_cylinder_retraction``, ``Contraction``,
``radial_projection`` and its grid, ``gh_distance_bound``, the
metric validation kernel, ``FiniteMetricSpace.from_coords``, the cover's
membership matrix and clearances, ``GluingConfig``, ``default_rho``,
``ChartAtlas``, the chart fold and the stability maps against them."""
import itertools
import math

import numpy as np

from nervekit.cone import ConePoint, CylinderPoint
from nervekit.complex import BarycentricPoint, ComplexError, combine
from nervekit.cover import (BETWEEN_TOL, GoodnessEntry, GoodnessReport,
                            IntersectionRecord)
from nervekit.homology import BettiVector, betti as complex_betti, vr_complex
from nervekit.metric import FiniteMetricSpace, MetricError, _map_epsilon
from nervekit.retraction import (DeformationTrace, TraceStage,
                                 cone_retraction_phi, cutoff_mu, cutoff_nu,
                                 height_blend, lerp)
from nervekit.stability import _blend_in_chart


def chebyshev_center(cover, members):
    """Member with the largest clearance from the complement of the
    intersection; ties broken by lowest point index."""
    space = cover.space
    comp = [i for i in range(space.n) if i not in members]
    best, best_d = None, -1.0
    for x in sorted(members):
        d = space.diameter() + 1.0 if not comp else float(space.dist[x, comp].min())
        if d > best_d:
            best, best_d = x, d
    return best


def intersections(cover, max_order):
    """Breadth-first enumeration over frozensets, one record per nonempty
    intersection of at most max_order sets."""
    records = []
    frontier = []
    for j in range(cover.n_sets):
        rec = IntersectionRecord(frozenset([j]), cover.sets[j], cover.centers[j])
        records.append(rec)
        frontier.append(rec)
    for _ in range(2, max_order + 1):
        nxt = []
        seen = set()
        for rec in frontier:
            top = max(rec.indices)
            for j in range(top + 1, cover.n_sets):
                idx = rec.indices | {j}
                if idx in seen:
                    continue
                members = rec.members & cover.sets[j]
                if members:
                    seen.add(idx)
                    nxt.append(
                        IntersectionRecord(idx, members, chebyshev_center(cover, members))
                    )
        records.extend(nxt)
        frontier = nxt
        if not frontier:
            break
    return records


def brute_force_intersections(cover, max_order):
    """Every subset of at most max_order sets, tried one by one, in the
    documented record order: by size, then lexicographically."""
    records = []
    for k in range(1, max_order + 1):
        for idx in itertools.combinations(range(cover.n_sets), k):
            members = frozenset.intersection(*(cover.sets[j] for j in idx))
            if members:
                center = (cover.centers[idx[0]] if k == 1
                          else chebyshev_center(cover, members))
                records.append(IntersectionRecord(frozenset(idx), members, center))
    return records


def check_closed(n_vertices, simplices):
    """Full downward-closure check over every face of every simplex."""
    sims = frozenset(frozenset(s) for s in simplices)
    for s in sims:
        if not s:
            raise ComplexError("empty simplex not allowed")
        if min(s) < 0 or max(s) >= n_vertices:
            raise ComplexError(f"vertex out of range in {sorted(s)}")
        for v in s:
            if frozenset([v]) not in sims:
                raise ComplexError("complex is not downward closed")
        for k in range(1, len(s)):
            for face in itertools.combinations(s, k):
                if frozenset(face) not in sims:
                    raise ComplexError("complex is not downward closed")
    return sims


def maximal_simplices(simplices):
    """Quadratic scan: simplices that are a proper subset of none."""
    out = []
    for s in simplices:
        if not any(s < t for t in simplices):
            out.append(tuple(sorted(s)))
    return sorted(out)


def complement_distance(cover, j, x):
    """Distance from x to the complement of set j; diam+1 when the set is
    the whole space."""
    comp = [i for i in range(cover.space.n) if i not in cover.sets[j]]
    if not comp:
        return cover.space.diameter() + 1.0
    return float(cover.space.dist[x, comp].min())


def boundary_flagged(cover):
    """Sets whose center touches the complement (zero clearance)."""
    return [
        j for j in range(cover.n_sets)
        if complement_distance(cover, j, cover.centers[j]) == 0.0
    ]


def f_weight(cover, j, x):
    """Raw cutoff weight |x, U_j^c| / (|x, U_j^c| + |x, p_j|) of set j at
    point x; zero off U_j."""
    if x not in cover.sets[j]:
        return 0.0
    comp = complement_distance(cover, j, x)
    center = float(cover.space.dist[x, cover.centers[j]])
    return comp / (comp + center)


def pou_values(cover):
    """Partition of unity from the per-point f_weight loop."""
    raw = np.zeros((cover.space.n, cover.n_sets))
    for j in range(cover.n_sets):
        for x in cover.sets[j]:
            raw[x, j] = f_weight(cover, j, x)
    return raw / raw.sum(axis=1)[:, None]


def gf2_rank(mat):
    """Rank of a 0/1 matrix over GF(2) by dense Gaussian elimination."""
    m = np.array(mat, dtype=np.uint8) & 1
    rank = 0
    rows, cols = m.shape
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        hits = np.flatnonzero(m[:, col])
        hits = hits[hits != rank]
        m[hits] ^= m[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def k_simplices(K, k):
    """Sorted list of the k-dimensional simplices of K as sorted tuples."""
    return sorted(tuple(sorted(s)) for s in K.simplices if len(s) == k + 1)


def boundary_matrix(K, k):
    """GF(2) boundary matrix from k-simplices to (k-1)-simplices."""
    highs = k_simplices(K, k)
    lows = k_simplices(K, k - 1)
    low_index = {s: i for i, s in enumerate(lows)}
    mat = np.zeros((len(lows), len(highs)), dtype=np.uint8)
    for j, s in enumerate(highs):
        for drop in range(len(s)):
            face = s[:drop] + s[drop + 1:]
            mat[low_index[face], j] = 1
    return mat


def betti(K, max_dim=None):
    """Betti numbers from the dense rank of every boundary matrix."""
    top = K.dim if max_dim is None else min(max_dim, K.dim)
    ranks = []
    rank_in = 0  # rank of the boundary map out of dimension k
    for k in range(top + 1):
        n_k = len(k_simplices(K, k))
        rank_out = gf2_rank(boundary_matrix(K, k + 1)) if k + 1 <= K.dim else 0
        ranks.append(n_k - rank_in - rank_out)
        rank_in = rank_out
    return BettiVector(tuple(ranks), truncation_dim=top)


def vr_simplices(space, scale, max_dim):
    """Every vertex subset of at most max_dim + 1 points whose pairs are all
    within scale, found by trying all 2^n subsets."""
    out = set()
    for bits in range(1, 1 << space.n):
        s = [v for v in range(space.n) if bits >> v & 1]
        if len(s) <= max_dim + 1 and all(
            space.dist[a, b] <= scale for a, b in itertools.combinations(s, 2)
        ):
            out.add(frozenset(s))
    return frozenset(out)


def star_shaped(space, members, center):
    """Per-member loop: every point metrically between a member and the
    center must be a member."""
    for x in sorted(members):
        via = space.dist[x, :] + space.dist[:, center]
        direct = space.dist[x, center]
        for y in np.flatnonzero(via <= direct + BETWEEN_TOL):
            if int(y) not in members:
                return False
    return True


def proxy_scale(space, members):
    """Twice the largest nearest-neighbour distance among the members; 1.0
    for a single member."""
    idx = sorted(members)
    if len(idx) == 1:
        return 1.0
    sub = space.dist[np.ix_(idx, idx)].copy()
    np.fill_diagonal(sub, np.inf)
    return 2.0 * float(sub.min(axis=1).max())


def proxy_betti(dist, scale):
    """The goodness proxy's Betti numbers as the report computed them per
    member set: the submatrix validated again, its Vietoris-Rips complex
    built as a closure-checked ``SimplicialComplex``, and the whole complex
    reduced."""
    return complex_betti(vr_complex(FiniteMetricSpace(dist), scale, max_dim=3),
                         max_dim=2).ranks


def goodness_report(cover, max_order):
    """The goodness report computed afresh for every record, with dense
    Betti numbers."""
    entries = []
    for rec in intersections(cover, max_order):
        idx = sorted(rec.members)
        scale = proxy_scale(cover.space, rec.members)
        sub = FiniteMetricSpace(cover.space.dist[np.ix_(idx, idx)])
        ranks = betti(vr_complex(sub, scale, max_dim=3), max_dim=2).ranks
        entries.append(GoodnessEntry(
            indices=tuple(sorted(rec.indices)),
            star_shaped=star_shaped(cover.space, rec.members, rec.center),
            betti=ranks,
            proxy_scale=scale,
            contractible_proxy=ranks[0] == 1 and not any(ranks[1:]),
        ))
    return GoodnessReport(tuple(entries))


def tree_distances(n, seed):
    """Floyd-Warshall over the random tree that ``tree_space(n, seed)``
    draws: the same parents and weights from the same generator."""
    rng = np.random.default_rng(seed)
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for v in range(1, n):
        parent = int(rng.integers(0, v))
        d[parent, v] = d[v, parent] = float(rng.uniform(0.5, 1.5))
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def contraction_paths(space, members, center):
    """The greedy path of every member to the center, walked afresh from
    each member: a step goes to the nearest member (lowest index on ties)
    strictly closer to the center, found by a scan of all members, or to
    the center when none is."""
    d = space.dist
    ordered = sorted(members)
    paths = {}
    for x in ordered:
        path = [x]
        cur = x
        while cur != center:
            here = d[cur, center]
            cands = [y for y in ordered if d[y, center] < here] or [center]
            cur = min(cands, key=lambda y: (d[cur, y], y))
            path.append(cur)
        paths[x] = path
    return paths


def project_row(coords, t, L):
    """The radial projection of one row of sigma coordinates at height t,
    lambda by lambda: the projected row, clipped at 0, and the landing
    height."""
    bary = 1.0 / len(coords)
    lam0 = 2.0 * L / (2.0 * L - t)
    lam_wall = math.inf
    wall_hits = []
    for i, c in enumerate(coords):
        if c < bary:
            lam_i = bary / (bary - c)
            if lam_i < lam_wall:
                lam_wall, wall_hits = lam_i, [i]
            elif lam_i == lam_wall:
                wall_hits.append(i)
    if lam_wall < lam0:
        u = min(max(2.0 * L + lam_wall * (t - 2.0 * L), 0.0), L)
        out = bary + lam_wall * (coords - bary)
        out[wall_hits] = 0.0
    else:
        u = 0.0
        out = bary + lam0 * (coords - bary)
    return np.maximum(out, 0.0), float(u)


def radial_projection(sigma, x, t, L):
    """``retraction.radial_projection`` with its arithmetic one coordinate
    at a time."""
    sigma = tuple(sorted(sigma))
    if len(sigma) == 1 or t == 0.0:
        return x, 0.0
    if x.support < frozenset(sigma):
        return x, t
    if not x.support <= frozenset(sigma):
        raise MetricError("barycentric point is not carried by the simplex")
    out, u = project_row(np.array([x[v] for v in sigma]), t, L)
    return BarycentricPoint({v: w for v, w in zip(sigma, out)}), u


def blend_grid(k, L):
    """The low-landing and high-landing nodes of the height-blend grid
    (coordinates in steps of 1/12, 25 heights), one ``radial_projection``
    per node and height."""
    verts = tuple(range(k))
    pts, us = [], []
    for comp in itertools.combinations_with_replacement(range(k), 12):
        counts = np.bincount(comp, minlength=k).astype(float) / 12
        b = BarycentricPoint({v: c for v, c in zip(verts, counts) if c > 0})
        for t in np.linspace(0.0, L, 25):
            _, u = radial_projection(verts, b, float(t), L)
            pts.append(np.append(counts, t))
            us.append(u)
    pts, us = np.array(pts), np.array(us)
    return pts[us <= L / 10.0], pts[us >= L / 2.0]


def simplexwise_retraction(sigma, contraction, x, p, s, L):
    """One value of s of the simplex-wise retraction, with the radial
    projection and the height blend computed afresh."""
    sigma = tuple(sorted(sigma))
    t = p.t
    psi0, u = radial_projection(sigma, x, t, L)
    w = height_blend(sigma, x, t, L, u=u)
    new_x = combine(x, psi0, s)
    mu_s = cutoff_mu(s)
    base = contraction(p.base, 0.0 if mu_s == 0.0 else mu_s * (t - u))
    return new_x, ConePoint(base, lerp(t, w, cutoff_nu(s)))


def full_cylinder_retraction(cyl, contractions, point, n_steps=16):
    """The composite cylinder retraction replayed point by point: every
    value of the s grid runs the whole simplex-wise step again."""
    cyl.require(point)
    grid = tuple(i / n_steps for i in range(n_steps + 1))
    stages = []
    membership_ok = True
    cur = point
    guard = 0
    while cur.cone.t != 0.0:
        guard += 1
        if guard > cyl.nerve.dim + 2:
            raise MetricError("cylinder retraction failed to terminate")
        supp = frozenset(cur.theta.support)
        if supp not in contractions:
            raise MetricError(
                f"missing contraction data for simplex {sorted(supp)}"
            )
        con = contractions[supp]
        sigma = tuple(sorted(supp))
        pts = []
        for s in grid:
            if len(sigma) == 1:
                q = CylinderPoint(cur.theta, cone_retraction_phi(con, cur.cone, s))
            else:
                nx_, nc = simplexwise_retraction(sigma, con, cur.theta, cur.cone,
                                                 s, cyl.L)
                q = CylinderPoint(nx_, nc)
            if not cyl.check_membership(q):
                membership_ok = False
            pts.append(q)
        stages.append(TraceStage(sigma, grid, tuple(pts)))
        cur = pts[-1]
    return DeformationTrace(point, tuple(stages), membership_ok)


def greedy_map(X, Y, ax, ay):
    """Anchored greedy matching that gathers the columns of the placed
    points' images from Y's matrix at every step."""
    order = np.argsort(X.dist[ax], kind="stable")
    image = np.full(X.n, -1, dtype=int)
    placed = []
    for x in order:
        if not placed:
            image[x] = ay
        else:
            ps = np.array(placed)
            cost = np.abs(Y.dist[:, image[ps]] - X.dist[x, ps][None, :]).max(axis=1)
            image[x] = int(np.argmin(cost))
        placed.append(x)
    return image


def gh_distance_bound(X, Y, trials=16, seed=0):
    """The seeded GH bracket built on ``greedy_map``."""
    lower = abs(X.diameter() - Y.diameter()) / 2.0
    upper = math.inf
    if X.n == Y.n:
        ident = np.arange(X.n)
        upper = max(_map_epsilon(X, Y, ident), _map_epsilon(Y, X, ident))
    rng = np.random.default_rng(seed)
    anchors = list(itertools.product(range(X.n), range(Y.n)))
    rng.shuffle(anchors)
    for ax, ay in anchors[:trials]:
        eps = max(
            _map_epsilon(X, Y, greedy_map(X, Y, ax, ay)),
            _map_epsilon(Y, X, greedy_map(Y, X, ay, ax)),
        )
        upper = min(upper, eps)
    return lower, float(upper)


def triangle_defects(d, block=32):
    """``d[i, k] - min_j (d[i, j] + d[j, k])`` for every entry, by one
    broadcast over each block of ``block`` rows."""
    bad = np.empty_like(d)
    for a in range(0, len(d), block):
        rows = d[a:a + block]
        bad[a:a + block] = rows - np.min(rows[:, :, None] + d[None, :, :], axis=1)
    return bad


def coord_distances(c):
    """Euclidean distances of the rows of ``c`` by one (n, n, m) broadcast."""
    diff = c[:, None, :] - c[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def clearances(cover):
    """n x m clearance matrix set by set, as a mask over the set's points:
    inf off the set and for a whole-space set."""
    dist = cover.space.dist
    n = cover.space.n
    out = np.full((n, cover.n_sets), np.inf)
    for j, s in enumerate(cover.sets):
        if len(s) < n:
            inside = np.zeros(n, dtype=bool)
            inside[list(s)] = True
            members = np.flatnonzero(inside)
            out[members, j] = dist[np.ix_(members, ~inside)].min(axis=1)
    return out


def multiplicities(cover):
    """Number of sets holding each point, one set at a time."""
    mult = np.zeros(cover.space.n, dtype=int)
    for s in cover.sets:
        mult[list(s)] += 1
    return mult


def membership(cover, x):
    """Indices of the sets containing x, by a scan of the sets."""
    return frozenset(j for j, s in enumerate(cover.sets) if x in s)


def mesh(cover):
    """Largest set diameter, set by set."""
    out = 0.0
    for s in cover.sets:
        idx = sorted(s)
        if len(idx) > 1:
            out = max(out, float(cover.space.dist[np.ix_(idx, idx)].max()))
    return out


def measured_radii(cover):
    """Per set, the largest distance from its center to a member, nudged
    past it as ``lift_cover`` does without radius hints; the least positive
    float when that distance is 0."""
    reach = [float(max(cover.space.dist[c, m] for m in s))
             for c, s in zip(cover.centers, cover.sets)]
    return tuple(r * (1.0 + 1e-9) if r > 0.0 else math.nextafter(0.0, 1.0) for r in reach)


def greedy_net(space, separation, seed):
    """The seeded greedy net, one comparison per placed point."""
    order = np.random.default_rng(seed).permutation(space.n)
    net = []
    for x in order:
        if all(space.dist[x, y] >= separation for y in net):
            net.append(int(x))
    return net


def atlas_centers(space, region, deltaR):
    """The chart centers of ``build_gluing_atlas``: a greedy
    (deltaR/2)-separated family of the region in ascending order."""
    centers = []
    for x in sorted(region):
        if all(space.dist[x, c] >= deltaR / 2.0 for c in centers):
            centers.append(x)
    return centers


def dist_to_D(config, x):
    """Distance from x to D by a scan of D, 0 for a distance below 0; mu when
    D is empty."""
    if not config.D:
        return config.mu
    dist = float(config.space.dist[x, sorted(config.D)].min())
    return 0.0 if dist < 0.0 else dist


def d(config, x):
    return min(dist_to_D(config, x), config.mu)


def D0(config):
    return frozenset(
        x for x in range(config.space.n) if dist_to_D(config, x) <= config.mu)


def D1(config):
    return frozenset(
        x for x in range(config.space.n) if dist_to_D(config, x) <= 2.0 * config.mu)


def blend_zone(config):
    return [x for x in range(config.space.n) if 0.0 < d(config, x) < config.mu]


def rho(config, x, t):
    """The homotopy-gluing cutoff at (x, t), with a Python min over D0 for
    every call."""
    d0 = D0(config)
    s1 = 0.0 if x in d0 else min(
        min(float(config.space.dist[x, y]) for y in sorted(d0)) / config.mu, 1.0
    ) if d0 else 1.0
    s0 = min(dist_to_D(config, x) / config.mu, 1.0) if config.D else 1.0
    if t >= 0.5:
        ramp = 0.0
    elif t <= 0.25:
        ramp = 1.0
    else:
        ramp = (0.5 - t) * 4.0
    return max(s1, s0 * ramp)


def atlas_covers(atlas, space, region):
    """Every point of region lies in the half-radius ball of some chart."""
    return all(
        any(float(space.dist[x, ch.center]) < ch.radius / 2.0 for ch in atlas.charts)
        for x in region
    )


def atlas_multiplicity(atlas, space, region):
    """Most charts within 2 deltaR of a point of region; 0 for none."""
    if not region:
        return 0
    return max(
        sum(1 for ch in atlas.charts if space.dist[x, ch.center] < 2.0 * atlas.deltaR)
        for x in region
    )


def fold_charts(atlas, space, x, side, a, b, weight_b):
    """The chart fold of the gluings at x, reading each chart's ball and
    cutoff one chart at a time, in the chart's ``side`` ("source_chart" or
    "target_chart"); None when no chart ball holds x."""
    cur = None
    weight = 0.0
    for ch in atlas.charts:
        dist = float(space.dist[x, ch.center])
        if not dist < ch.radius / 2.0:
            continue
        chart = getattr(ch, side)
        val = _blend_in_chart(chart, a, b, weight_b)
        phi = max(0.0, 1.0 - dist / ch.radius)
        if cur is None:
            cur, weight = val, phi
        else:
            cur = _blend_in_chart(chart, cur, val, phi / (weight + phi))
            weight += phi
    return cur


def almost_inverse_image(pmap):
    """Per target point, the first source point whose image lies closest."""
    return np.array([
        int(np.argmin(pmap.target.dist[pmap.image, y]))
        for y in range(pmap.target.n)
    ])


def displacements(src_space, tgt_space, phi, psi, g, h):
    """disp_h, disp_g and disp_roundtrip of the equivalence report, one
    point at a time."""
    disp_h = max(float(src_space.dist[psi(y), h(y)]) for y in range(tgt_space.n))
    disp_g = max(float(tgt_space.dist[phi(x), g(x)]) for x in range(src_space.n))
    disp_rt = max(
        float(tgt_space.dist[phi(psi(y)), g(h(y))]) for y in range(tgt_space.n))
    return disp_h, disp_g, disp_rt


def through_nerve_membership(pou, image, codomain):
    """Whether every point's image lies in a set of its support."""
    return all(
        any(int(image[x]) in codomain.sets[j] for j in pou.support(x))
        for x in range(len(image))
    )
