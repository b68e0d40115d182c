"""A fault table: named faults, each a monkeypatch of one function, run
against one small fixed set of checks.  A fault that no check flips fails
its row, with its name.

The checks are the helpers that the named tests of ``test_estimates.py`` and
``test_flow.py`` call, so they pass without a fault.  Each builds what it
reads under the fault, from the family up; only the closed-form oracles of
``conftest.py`` come from fixtures.  A check flips when it raises an
``AssertionError``; any other error fails the row, since it shows a broken
fault or check rather than a caught one.
"""

import dataclasses

import numpy as np
import pytest

import collapselab.estimates as estimates
import collapselab.flow as flow
import collapselab.manifold as manifold
from collapselab import FamilySpec, build_family
from collapselab.splitting import classify_regular, harmonic_coordinates
from test_estimates import (
    check_the_headline_is_informative_past_the_fiber_gap,
    check_the_headline_lhs_is_a_volume_weighted_average,
    check_the_headline_rhs_and_c2_follow_their_formulas,
    warped_headline_parts,
)
from test_flow import (
    EPS,
    LAMBDA_MIN_REL,
    check_projection_fiber_mode_is_full_gradient,
    check_projection_orthogonality_and_pythagoras,
    fiber_mode_field,
)


def unweighted_mean(region_average):
    # every average the estimates module takes, the headline LHS among them
    def faulty(M, f, region):
        return float(np.mean(np.asarray(f)[np.asarray(region, dtype=bool)]))

    return faulty


def psi_halved(main_theorem_report):
    # psi as main_theorem_report reads it; the certificate itself is untouched
    def faulty(eig, field, ball_r, cert, cutoff):
        return main_theorem_report(eig, field, ball_r, dataclasses.replace(cert, psi=cert.psi / 2), cutoff)

    return faulty


def reciprocal_volume(volume):
    # |B(p, 2r)| / |B(p, r)| becomes |B(p, r)| / |B(p, 2r)|
    def faulty(ball):
        return 1.0 / volume(ball)

    return faulty


def speed_sq_scaled(tangential_projection):
    # |grad^T u|^2 of each field made through flow.tangential_projection
    def faulty(u, mask):
        field = tangential_projection(u, mask)
        return dataclasses.replace(field, speed_sq=1.5 * field.speed_sq)

    return faulty


# name: (owner, attribute, the fault made from the original)
FAULTS = {
    "lhs-unweighted-node-mean": (estimates, "region_average", unweighted_mean),
    "psi-halved-in-rhs": (estimates, "main_theorem_report", psi_halved),
    "volume-ratio-inverted-in-c2": (manifold.GeodesicBall, "volume", reciprocal_volume),
    "tangential-speed-sq-times-1.5": (flow, "tangential_projection", speed_sq_scaled),
}


def flat_fiber_mode():
    M = build_family(FamilySpec(kind="flat-product-torus", epsilon=EPS, resolution=(256, 32)))
    return fiber_mode_field(classify_regular(harmonic_coordinates(M), LAMBDA_MIN_REL))


def checks(warped_oracle, warped_epsilon_hat):
    """The checks, each a call that raises AssertionError when it flips."""
    return [
        lambda: check_the_headline_lhs_is_a_volume_weighted_average(warped_headline_parts()),
        lambda: check_the_headline_rhs_and_c2_follow_their_formulas(
            warped_headline_parts(), warped_oracle, warped_epsilon_hat),
        check_the_headline_is_informative_past_the_fiber_gap,
        lambda: check_projection_orthogonality_and_pythagoras(flat_fiber_mode()),
        lambda: check_projection_fiber_mode_is_full_gradient(flat_fiber_mode()),
    ]


def flips(check) -> bool:
    try:
        check()
    except AssertionError:
        return True
    return False


@pytest.mark.parametrize("fault", list(FAULTS))
def test_a_check_flips_under_the_fault(monkeypatch, warped_oracle, warped_epsilon_hat, fault):
    owner, attribute, make = FAULTS[fault]
    monkeypatch.setattr(owner, attribute, make(getattr(owner, attribute)))
    assert any(flips(check) for check in checks(warped_oracle, warped_epsilon_hat)), \
        f"no check flips under the fault {fault!r}"
