import numpy as np
import pytest

import capquad as cq


@pytest.fixture(scope="session")
def cap_a1():
    return cq.Cap(cq.north_pole(2), 1.0)


@pytest.fixture(scope="session")
def cap_a05():
    return cq.Cap(cq.north_pole(2), 0.5)


@pytest.fixture(scope="session")
def collar_std():
    return cq.Collar(cq.north_pole(2), 0.5, 1.0)


@pytest.fixture(scope="session")
def nodes_a1_n8(cap_a1):
    return cq.ring_lattice(cap_a1, 0.25 / 8, seed=42, degree=8, delta=0.25)


@pytest.fixture(scope="session")
def rule_a1_n8(nodes_a1_n8):
    rule = cq.solve_weights(nodes_a1_n8, 8, tol=1e-10)
    assert isinstance(rule, cq.CubatureRule)
    return rule


@pytest.fixture(scope="session")
def nodes_a05_n8(cap_a05):
    return cq.ring_lattice(cap_a05, 0.25 / 8, seed=42, degree=8, delta=0.25)


@pytest.fixture(scope="session")
def nodes_family_d05(cap_a1):
    """Maximal sets at delta = 0.5 for n in {8, 16, 32} (shared by scaling
    and covering checks)."""
    return {
        n: cq.ring_lattice(cap_a1, 0.5 / n, seed=0, degree=n, delta=0.5)
        for n in (8, 16, 32)
    }


def random_cap_points(cap, count, seed):
    """Area-uniform sample of the cap (d=2) or arc (d=1)."""
    rng = np.random.default_rng(seed)
    frame = cq.geometry.north_frame(cap.center)
    if cap.dim == 2:
        t = rng.uniform(np.cos(cap.alpha), 1.0, count)
        phi = rng.uniform(0.0, 2 * np.pi, count)
        s = np.sqrt(np.clip(1 - t * t, 0, None))
        local = np.column_stack([s * np.cos(phi), s * np.sin(phi), t])
    else:
        u = rng.uniform(-cap.alpha, cap.alpha, count)
        local = np.column_stack([np.sin(u), np.cos(u)])
    return local @ frame


def three_node_set():
    """Three nodes on the cap of radius 1 tagged with degree 4: far too
    sparse for the 25 moments of that degree."""
    theta, phi = np.array([0.0, 0.5, 0.9]), np.array([0.0, 1.0, 3.0])
    coords = np.column_stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                              np.cos(theta)])
    return cq.NodeSet(cq.Cap(cq.north_pole(2), 1.0), coords, 0.1, degree=4)


def random_collar_points(collar, count, seed):
    rng = np.random.default_rng(seed)
    frame = cq.geometry.north_frame(collar.center)
    t = rng.uniform(np.cos(collar.beta), np.cos(collar.alpha), count)
    phi = rng.uniform(0.0, 2 * np.pi, count)
    s = np.sqrt(np.clip(1 - t * t, 0, None))
    local = np.column_stack([s * np.cos(phi), s * np.sin(phi), t])
    return local @ frame


def north_frame_per_node(e):
    """The Householder frame of one unit vector, v.v taken by a 1-D dot:
    the reference for ``geometry.north_frame``."""
    pole = np.zeros(e.shape[0])
    pole[-1] = 1.0
    v = e - pole
    vv = float(v @ v)
    if vv < 1e-28:
        return np.eye(e.shape[0])
    return np.eye(e.shape[0]) - (2.0 / vv) * np.outer(v, v)


def spread_subset(nodes, count):
    """``count`` rows of a node set's coords at a fixed stride: spread over
    the whole domain, where a prefix of the ring lattice is its boundary ring."""
    return nodes.coords[::len(nodes) // count][:count]
