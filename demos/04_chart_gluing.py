"""Glue a locally defined almost isometry into a global map with charts.

A flat grid patch carries distance-coordinate charts around strained points.
An inner map (a one-column translation near the center block) is blended into
the identity, agreeing with each exactly on its plateau.
"""
import numpy as np

from nervekit import GluingConfig, PointMap, build_gluing_atlas, glue_maps
from nervekit.samples import grid_with_strainers


def main():
    m = 9
    space, pairs = grid_with_strainers(m, spacing=1.0)
    D = frozenset(i * m + j for i in range(3, 6) for j in range(3, 6))
    config = GluingConfig(space, D, mu=2.0)
    print(f"{m}x{m} grid patch: |D| = {len(D)}, |D0| = {len(config.D0)}, "
          f"|D1| = {len(config.D1)}")

    g = {
        x: x + 1 if (x < m * m and x % m < m - 1) else x
        for x in config.D1
    }
    f = PointMap(space, space, np.arange(space.n))

    blend = config.blend_zone
    atlas = build_gluing_atlas(space, space, blend, 3.0, pairs, pairs, g,
                               delta=0.3)
    print(f"{len(atlas.charts)} charts over the collar, "
          f"worst coordinate distortion "
          f"{max(c.target_chart.distortion for c in atlas.charts):.4f}")

    glued, report = glue_maps(f, g, config, atlas)
    exact_inner = all(glued(x) == g[x] for x in config.D)
    exact_outer = all(glued(x) == f(x) for x in range(space.n)
                      if x not in config.D0)
    print("glued map equals the inner map on D exactly:", exact_inner)
    print("glued map equals the outer map off D0 exactly:", exact_outer)
    moved = sum(1 for x in blend if glued(x) != x)
    print(f"{moved} of {len(blend)} collar points moved by the blend")


if __name__ == "__main__":
    main()
