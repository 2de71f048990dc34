"""Span arithmetic and the instrumentation of nervekit's entry points."""
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "..", "src"), os.path.join(HERE, "..")]

import pytest  # noqa: E402

import nervekit  # noqa: E402
from nervekit import cover, homology, nerve  # noqa: E402
from nervekit.samples import circle_space  # noqa: E402
from tracing import (Tracer, instrument, layer_metrics, self_times,  # noqa: E402
                     span_counts)


def test_self_time_subtracts_union_of_children():
    spans = [
        (0, "root", 0.0, 10.0, -1),
        (1, "a", 1.0, 4.0, 0),
        (2, "b", 5.0, 9.0, 0),
        (3, "c", 3.0, 6.0, 0),    # overlaps a and b: covered once
        (4, "leaf", 6.0, 7.0, 2),
        (5, "a", 11.0, 12.0, -1),  # a second root-level span of the same name
        (6, "leaf", 11.5, 13.0, 5),  # runs past its parent: clipped
    ]
    got = self_times(spans)
    assert got["root"] == pytest.approx(10.0 - 8.0)
    assert got["a"] == pytest.approx(3.0 + (1.0 - 0.5))
    assert got["b"] == pytest.approx(4.0 - 1.0)
    assert got["c"] == pytest.approx(3.0)
    assert got["leaf"] == pytest.approx(1.0 + 1.5)
    assert span_counts(spans) == {"root": 1, "a": 2, "b": 1, "c": 1, "leaf": 2}


def test_layer_metrics_are_per_pass_and_zero_when_unused():
    tracer = Tracer()
    tracer.spans = [
        (0, "nerve.nerve_of", 0.0, 3.0, -1),
        (1, "cover.intersections", 0.5, 2.5, 0),
        (2, "nerve.nerve_of", 4.0, 5.0, -1),
    ]
    tracer.count("nerve.simplices", 30)
    tracer.gauge_max("cover.sets", 4)
    tracer.gauge_max("cover.sets", 7)
    got = layer_metrics(tracer, passes=2)
    assert got["nerve.nerve_of_s"]["value"] == pytest.approx((1.0 + 1.0) / 2)
    assert got["cover.intersections_s"]["value"] == pytest.approx(1.0)
    assert got["nerve.calls"]["value"] == 1.0
    assert got["nerve.simplices"]["value"] == 15.0
    assert got["cover.sets"]["value"] == 7
    assert got["retraction.trace_s"]["value"] == 0.0
    assert got["cover.goodness_ok_ratio"]["value"] == 0.0


def _three_arc_cover(n=48):
    import math

    space = circle_space(n)
    r = 2.0 * math.sin(math.radians(35.0))
    centers = (0, n // 3, 2 * n // 3)
    return nervekit.Cover(space, tuple(space.ball(c, r) for c in centers), centers)


def test_nested_calls_become_child_spans_and_originals_return():
    originals = (nerve.nerve_of, cover.intersections, homology.betti,
                 nervekit.FiniteMetricSpace.__post_init__)
    tracer = Tracer()
    cov = _three_arc_cover()
    with instrument(tracer):
        nerve.nerve_of(cov)
        cover.goodness_report(cov, max_order=2)
    names = {sid: name for sid, name, *_ in tracer.spans}
    parents = {(name, names.get(parent)) for _sid, name, _s, _e, parent in tracer.spans}
    assert ("cover.intersections", "nerve.nerve_of") in parents
    assert ("complex.build", "nerve.nerve_of") in parents
    assert ("cover.intersections", "cover.goodness") in parents
    assert ("homology.vr", "cover.goodness") in parents
    assert ("homology.betti", "cover.goodness") in parents
    assert ("metric.validate", "cover.goodness") in parents
    assert ("homology.rank", "homology.betti") in parents
    assert tracer.counts["cover.goodness_entries"] == 6
    assert tracer.gauges["cover.max_multiplicity"] == 2
    assert (nerve.nerve_of, cover.intersections, homology.betti,
            nervekit.FiniteMetricSpace.__post_init__) == originals
    assert nervekit.nerve_of is nerve.nerve_of
