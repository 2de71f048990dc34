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
from .metric import FiniteMetricSpace, MetricError
from .nerve import nerve_of, require_full_nerve
from .partition import PartitionOfUnity

DEFAULT_L = 7.0


def validate_height_scale(L: float):
    if not L > 6.0:
        raise MetricError(f"cone height scale must exceed 6, got {L}")


@dataclass(frozen=True)
class ConePoint:
    base: int
    t: float

    def is_apex(self, L: float) -> bool:
        return self.t == L


def cone_distance(a: ConePoint, b: ConePoint, space: FiniteMetricSpace, L: float = DEFAULT_L) -> float:
    """Law-of-cosines cone metric with the angle capped at pi."""
    validate_height_scale(L)
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
    membership invariant base(cone) in U_supp(theta) on every point.  The
    cover's multiplicity must not exceed max_dim + 1, or some support would
    have no nerve simplex.
    """

    def __init__(self, cover: Cover, L: float = DEFAULT_L, max_dim: int = 8):
        validate_height_scale(L)
        require_full_nerve(cover, max_dim)
        self.cover = cover
        self.space = cover.space
        self.L = float(L)
        self.nerve = nerve_of(cover, max_dim=max_dim)
        self.pou = PartitionOfUnity(cover)

    def check_membership(self, p: CylinderPoint) -> bool:
        supp = p.theta.support
        if not self.nerve.contains(supp):
            return False
        if not 0.0 <= p.cone.t <= self.L:
            return False
        return all(p.cone.base in self.cover.sets[j] for j in supp)

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
        base = min(
            frozenset.intersection(*[self.cover.sets[j] for j in supp])
        )
        return CylinderPoint(theta, ConePoint(base, self.L))


def psi_project(p: CylinderPoint) -> BarycentricPoint:
    """Forget the cone factor; 1-Lipschitz for the product metric."""
    return p.theta
