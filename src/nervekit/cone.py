"""The Euclidean cone over a space, and the mapping cylinder joining the
nerve realization to the cover diagram.

Cone points are pairs (base, height) with every height-L point identified to
a single apex.  Cylinder points pair a barycentric point of the nerve with a
cone point whose base lies in the intersection indexed by the barycentric
support.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .complex import BarycentricPoint, realization_distance
from .cover import Cover
from .metric import FiniteMetricSpace, MetricError, _check_points
from .nerve import nerve_of
from .partition import PartitionOfUnity

DEFAULT_L = 7.0


def validate_height_scale(L: float):
    if not L > 6.0:
        raise MetricError(f"cone height scale must exceed 6, got {L}")


@dataclass(frozen=True)
class ConePoint:
    base: int
    t: float


def cone_distance(a: ConePoint, b: ConePoint, space: FiniteMetricSpace, L: float = DEFAULT_L) -> float:
    """Law-of-cosines cone metric with the angle capped at pi."""
    validate_height_scale(L)
    _check_points((a.base, b.base), space.n, "cone base")
    for p in (a, b):
        if not 0.0 <= p.t <= L:
            raise MetricError(f"cone height {p.t} outside [0, {L}]")
    ra = L - a.t
    rb = L - b.t
    ang = min(math.pi, float(space.dist[a.base, b.base]))
    val = ra * ra + rb * rb - 2.0 * ra * rb * math.cos(ang)
    return math.sqrt(max(0.0, val))


@dataclass(frozen=True)
class CylinderPoint:
    theta: BarycentricPoint
    cone: ConePoint

    def to_json(self) -> dict:
        return {
            "theta": self.theta.to_json(),
            "base": self.cone.base,
            "t": self.cone.t,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CylinderPoint":
        return cls(
            BarycentricPoint.from_json(obj["theta"]),
            ConePoint(int(obj["base"]), float(obj["t"])),
        )


class CylinderSpace:
    """The union over nerve simplices sigma of sigma x K(U_sigma).

    Holds the cover, its nerve and partition of unity, and enforces the
    membership invariant base(cone) in U_supp(theta) on every point.
    """

    def __init__(self, cover: Cover, L: float = DEFAULT_L):
        validate_height_scale(L)
        self.cover = cover
        self.space = cover.space
        self.L = float(L)
        self.nerve = nerve_of(cover)
        self.pou = PartitionOfUnity(cover)

    def check_membership(self, p: CylinderPoint) -> bool:
        return self._holds(p.theta.support, p.cone.base, 0.0 <= p.cone.t <= self.L)

    def _holds(self, supp, base: int, height_ok: bool) -> bool:
        """Membership of a point with support supp and base base whose height
        is in [0, L] when height_ok: base is a point in every set of supp, by
        the member bitsets.  The nerve is whole, so supp is then a simplex."""
        masks = self.cover._masks
        return (height_ok and 0 <= base < self.space.n and int(base) == base
                and all(0 <= j < len(masks) and masks[j] >> int(base) & 1 for j in supp))

    def require(self, p: CylinderPoint):
        if not self.check_membership(p):
            raise MetricError(
                "cylinder membership violation: base "
                f"{p.cone.base} not in the intersection of {sorted(p.theta.support)}"
            )

    def distance(self, a: CylinderPoint, b: CylinderPoint) -> float:
        """Product metric: Euclidean combination of the realization and cone
        distances."""
        dr = realization_distance(a.theta, b.theta)
        dc = cone_distance(a.cone, b.cone, self.space, self.L)
        return math.hypot(dr, dc)

    def tau_embed(self, x: int) -> CylinderPoint:
        """Section of the base projection: x -> (Theta(x), [x, 0])."""
        p = CylinderPoint(self.pou.theta(x), ConePoint(x, 0.0))
        self.require(p)
        return p

    def psi_embed(self, theta: BarycentricPoint) -> CylinderPoint:
        """Isometric embedding of the nerve realization onto the apex slice."""
        supp = theta.support
        if not self.nerve.contains(supp):
            raise MetricError(f"support {sorted(supp)} is not a nerve simplex")
        base = int(self.cover.member[:, sorted(supp)].all(axis=1).argmax())
        return CylinderPoint(theta, ConePoint(base, self.L))
