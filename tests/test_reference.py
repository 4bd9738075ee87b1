"""The committed reference: every certify number and two descents, recomputed.

``reference_certify.json`` holds, for 102 parameter points, the regime
tag, R, E, eta, the plain and forced-sphere Euler-Lagrange reports and
the convexity report (or the refusal that replaced each), and the final
energy and radial statistics of two particle descents.  A change that
moves a number on purpose regenerates the file with
``tests/make_reference.py`` and says why; any other change must leave
every value here in place.

Verdicts, tags, refusal types and messages match exactly.  Floats match
within 1e-13 relative (absolute below 1), so builds of numpy or scipy
that differ in the last bit still pass.  A location (``rho_worst_*``,
``rho_min_second_difference``) is compared only where its figure is
above 1e-12 max(1, |eta|): at rounding level the reported node is
arbitrary.  The descents compare the final energy within 1e-10 relative
and the radial statistics within 1e-8, not their iteration counts.
"""

from __future__ import annotations

import json
import math

import pytest

import aggremin as ag
from make_reference import (
    FLOAT_RTOL,
    FLOW_CASES,
    REFERENCE,
    certify_record,
    compared,
    flow_record,
    kernel,
    sphere_eta,
)

FLOW_ENERGY_RTOL = 1e-10
FLOW_RADIAL_TOL = 1e-8


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


with REFERENCE.open() as fh:
    REF = json.load(fh, parse_constant=_reject_constant)


def _close(got, want, rtol):
    return abs(got - want) <= rtol * max(1.0, abs(want))


def _mismatches(got, want, path, rtol=FLOAT_RTOL, eta=0.0):
    """The paths at which ``got`` differs from the stored ``want``."""
    if want is None:
        return [] if isinstance(got, float) and math.isnan(got) else [path]
    if isinstance(want, (bool, str)):
        return [] if got == want and type(got) is type(want) else [path]
    if isinstance(want, (int, float)):
        ok = isinstance(got, (int, float)) and not isinstance(got, bool)
        return [] if ok and _close(got, want, rtol) else [path]
    if isinstance(want, list):
        got = list(got) if isinstance(got, (list, tuple)) else None
        if got is None or len(got) != len(want):
            return [path]
        return [m for k, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{path}[{k}]", rtol, eta)]
    if not isinstance(got, dict) or list(got) != list(want):
        return [path]
    eta = want.get("eta", eta)
    out = []
    for key, w in want.items():
        if not compared(want, key, eta):
            continue
        out += _mismatches(got[key], w, f"{path}.{key}", rtol, eta)
    return out


def test_reference_file_covers_the_certify_points():
    assert len(REF["certify"]) == 102
    assert [case["case"] for case in REF["flow"]] == FLOW_CASES


def test_certify_points_match_the_reference():
    moved = []
    for k, want in enumerate(REF["certify"]):
        got = dict(point=want["point"], **certify_record(want["point"]))
        for key in want:
            eta = sphere_eta(want) if key == "convexity" else 0.0
            moved += _mismatches(got[key], want[key], f"certify[{k}].{key}", eta=eta)
    assert moved == []


def test_exterior_margins_sit_at_rounding_level():
    """On the exterior of the support Psi - eta >= 0, and for these points
    the smallest margin sits next to rho = 1, where it is 0 up to the
    error of the hypergeometric profiles.  With the profiles accurate to
    rounding there, every audited point reads at least
    -1e-14 max(1, |eta|)."""
    audited = [want["point"] for want in REF["certify"] if "refused" not in want["el"]]
    assert len(audited) == 94
    for point in audited:
        report = ag.verify_euler_lagrange(kernel(point))
        assert report.exterior_min_margin >= -1e-14 * max(1.0, abs(report.eta)), point


@pytest.mark.parametrize("k", range(len(FLOW_CASES)))
def test_flow_cases_match_the_reference(k):
    want = REF["flow"][k]
    got = flow_record(want["case"])
    assert _mismatches(got["energy"], want["energy"], "energy", FLOW_ENERGY_RTOL) == []
    assert _mismatches(got["radial"], want["radial"], "radial", FLOW_RADIAL_TOL) == []
