"""Property tests of the analytic level-profile recursion: conservation
laws and monotonicity that must hold at every scale and parameterization."""

import dataclasses as dc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BFSConfig
from repro.model.levelprofile import (
    rmat_degree_classes,
    simulate_level_profile,
    typical_root_lambda,
)


@settings(max_examples=25, deadline=None)
@given(
    scale=st.integers(min_value=10, max_value=36),
    edgefactor=st.sampled_from([4, 16, 32]),
    root_lambda=st.floats(min_value=1.0, max_value=1000.0),
)
def test_property_mass_conservation(scale, edgefactor, root_lambda):
    """Discoveries never exceed the vertex count, frontier sizes are
    non-negative, and the run terminates."""
    classes = rmat_degree_classes(scale, edgefactor)
    profile = simulate_level_profile(
        classes, BFSConfig.original_ppn8(), root_lambda=root_lambda
    )
    assert profile, "at least the root level"
    total_discovered = sum(l.discovered for l in profile)
    assert total_discovered <= classes.num_vertices * (1 + 1e-9)
    for lvl in profile:
        assert lvl.frontier_vertices >= 0
        assert lvl.examined_edges >= 0
        assert 0.0 <= lvl.frontier_density <= 1.0
        assert 0.0 <= lvl.hit_fraction <= 1.0


@settings(max_examples=20, deadline=None)
@given(scale=st.integers(min_value=16, max_value=36))
def test_property_reached_fraction_band(scale):
    """The reached fraction stays in a sane band at any scale."""
    classes = rmat_degree_classes(scale)
    profile = simulate_level_profile(classes, BFSConfig.original_ppn8())
    frac = sum(l.discovered for l in profile) / classes.num_vertices
    assert 0.2 < frac < 0.8


def test_reached_fraction_decreases_with_scale():
    """A known Graph500 R-MAT property: the isolated/unreachable mass
    grows with scale, so the reached fraction declines."""
    fracs = []
    for scale in (16, 24, 32):
        classes = rmat_degree_classes(scale)
        profile = simulate_level_profile(classes, BFSConfig.original_ppn8())
        fracs.append(
            sum(l.discovered for l in profile) / classes.num_vertices
        )
    assert fracs[0] > fracs[1] > fracs[2]


@settings(max_examples=20, deadline=None)
@given(
    scale=st.integers(min_value=14, max_value=32),
    alpha=st.floats(min_value=2.0, max_value=200.0),
)
def test_property_three_phase_any_alpha(scale, alpha):
    """The hybrid recursion keeps the TD/BU/TD phase structure for any
    switch threshold."""
    classes = rmat_degree_classes(scale)
    cfg = dc.replace(BFSConfig.original_ppn8(), alpha=alpha)
    profile = simulate_level_profile(classes, cfg)
    dirs = [l.direction for l in profile]
    if "bottom_up" in dirs:
        first = dirs.index("bottom_up")
        last = len(dirs) - 1 - dirs[::-1].index("bottom_up")
        assert all(d == "bottom_up" for d in dirs[first : last + 1])


def test_root_lambda_helpers():
    classes = rmat_degree_classes(24)
    # The typical root's degree is the edgefactor.
    assert typical_root_lambda(classes) == 16.0


@settings(max_examples=15, deadline=None)
@given(scale=st.integers(min_value=16, max_value=32))
def test_property_examined_bounded_by_arcs_per_level(scale):
    """No level can examine more than every arc once per candidate scan
    direction (a loose but absolute sanity bound)."""
    classes = rmat_degree_classes(scale)
    profile = simulate_level_profile(classes, BFSConfig.original_ppn8())
    arcs = classes.num_endpoints
    for lvl in profile:
        assert lvl.examined_edges <= arcs * (1 + 1e-9)
