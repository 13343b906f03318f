"""The value-type contract: frozen fields, value equality and hashing,
cache hits on equal domains, and domain shapes (polar_range, arcs) that
agree with the measure and the membership test."""

import dataclasses
import math

import numpy as np
import pytest

import capquad as cq
from capquad.geometry import contains, north_frame
from capquad.quadrature import build_rule

E1, E2 = cq.north_pole(1), cq.north_pole(2)


# two separately built equal values of each hashable value type
MAKERS = {
    "cap": lambda: cq.Cap([0.0, 0.0, 1.0], 1.0),
    "collar": lambda: cq.Collar(cq.SpherePoint([0.6, 0.8]), 0.5, 1.0),
    "sphere": lambda: cq.Sphere(2),
    "rhoball": lambda: cq.RhoBall(cq.Cap(E2, 1.0), [0.0, 0.0, 1.0], 0.25),
    "polyspace": lambda: cq.PolySpace(2, 8),
}


@pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS)
def test_equal_values_compare_and_hash_equal(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_fields_are_frozen():
    nodes = cq.NodeSet(cq.Cap(E2, 1.0), [[0.0, 0.0, 1.0]], 0.0)
    values = [cq.SpherePoint([0.0, 0.0, 1.0]), cq.Cap(E2, 1.0), cq.Collar(E2, 0.5, 1.0),
              cq.Sphere(1), cq.RhoBall(cq.Cap(E2, 1.0), E2, 0.25), cq.PolySpace(1, 3),
              cq.PolyCoeffs(cq.PolySpace(1, 1), [1.0, 2.0, 3.0]), build_rule(cq.Sphere(2), 2),
              cq.CubatureRule(nodes, [1.0], 0, 0.0, {})]
    for value in values:
        for field in dataclasses.fields(value):
            with pytest.raises(AttributeError):
                setattr(value, field.name, getattr(value, field.name))


def test_build_rule_cache_hits_on_equal_caps():
    first = build_rule(cq.Cap(cq.SpherePoint([0.0, 0.0, 1.0]), 1.0), 8)
    assert build_rule(cq.Cap(cq.north_pole(2), 1.0), 8) is first
    assert hasattr(build_rule, "cache_info")


def _polar_points(domain, theta):
    """Points at polar angles ``theta`` about the domain's center (one
    azimuth on S^2, the positive side on S^1)."""
    theta = np.asarray(theta, float)
    if domain.dim == 2:
        local = np.column_stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)])
    else:
        local = np.column_stack([np.sin(theta), np.cos(theta)])
    return local @ north_frame(domain.center)


def _known_measure(domain):
    """Measure from the domain's own fields (arc length on S^1)."""
    if isinstance(domain, cq.Sphere):
        return 2.0 * math.pi * domain.dim
    if isinstance(domain, cq.Cap):
        if domain.dim == 2:
            return 2.0 * math.pi * (1.0 - math.cos(domain.alpha))
        return 2.0 * domain.alpha
    if domain.dim == 2:
        return 2.0 * math.pi * (math.cos(domain.alpha) - math.cos(domain.beta))
    return 2.0 * (domain.beta - domain.alpha)


DOMAINS = [cq.Cap(E1, 0.7), cq.Cap(E2, 1.0), cq.Collar(E1, 0.5, 1.0),
           cq.Collar(cq.SpherePoint([0.3, 0.2, 0.9]), 0.5, 1.2), cq.Sphere(1), cq.Sphere(2)]


@pytest.mark.parametrize("domain", DOMAINS, ids=repr)
def test_polar_range_and_arcs_match_measure_and_membership(domain):
    lo, hi = domain.polar_range
    measure = cq.domain_measure(domain)
    assert measure == pytest.approx(_known_measure(domain), rel=1e-14)
    if domain.dim == 2:
        band = 2.0 * math.pi * (math.cos(lo) - math.cos(hi))
        assert measure == pytest.approx(band, rel=1e-14)
    else:
        assert measure == pytest.approx(sum(b - a for a, b in domain.arcs), rel=1e-14)
        # the arcs hold the polar range on either side of the center
        u = np.concatenate([np.linspace(a, b, 9) for a, b in domain.arcs])
        assert np.all((np.abs(u) >= lo) & (np.abs(u) <= hi))
    inner = np.linspace(lo, hi, 9)
    assert contains(domain, _polar_points(domain, inner)).all()
    outer = [t for t in (lo - 1e-3, hi + 1e-3) if 0.0 < t < math.pi]
    assert not contains(domain, _polar_points(domain, outer)).any()
    if domain.dim == 1:
        local = np.column_stack([np.sin(u), np.cos(u)])
        assert contains(domain, local @ north_frame(domain.center)).all()
