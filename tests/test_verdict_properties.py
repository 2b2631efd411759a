"""Verdicts on generated expressions whose truth is known by construction
(see strategies.py): each property holds for every tree drawn."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from forelli_lab import extract_jet, sphere_directions, standard_pencil
from forelli_lab.pipeline import (DISC_RADII, DISC_TOL, FAIL, disc_stage,
                                  holomorphic_type_stage)

from strategies import circle_perturbed, radial_perturbed

# at most 30 examples each, at order <= 8: both properties in a few seconds
BOUNDED = settings(max_examples=30)
PENCILS = {n: standard_pencil(n, sphere_directions(n, 200)) for n in (2, 3)}
ORDERS = {2: 8, 3: 8}


def in_c2_and_c3(strategy):
    """(n, tree) for n = 2 and 3, the trees drawn by ``strategy(n)``."""
    return st.sampled_from([2, 3]).flatmap(
        lambda n: st.tuples(st.just(n), strategy(n)))


@BOUNDED
@given(in_c2_and_c3(circle_perturbed))
def test_circle_perturbation_fails_the_disc_stage(case):
    n, f = case
    stage = disc_stage("disc_holomorphy", f, PENCILS[n], DISC_RADII,
                       DISC_TOL)
    assert stage.status == FAIL, stage.details


@BOUNDED
@given(in_c2_and_c3(circle_perturbed) | in_c2_and_c3(radial_perturbed))
def test_perturbation_fails_the_holomorphic_type_stage(case):
    n, f = case
    series = extract_jet(f, n, ORDERS[n]).series
    assert holomorphic_type_stage(series).status == FAIL
