"""Flux-tube geometry of the strong interaction, in floats.

The infrared radius r = 2E/(q sigma), where the running phase of the linear
potential stalls, and the minimal total flux-tube length L_min of three
charges on a triangle.  Neither reads the coefficient-matching solver, so
``solve --radius`` and ``solve --lmin`` run them without compiling it.
"""

from __future__ import annotations

import math

__all__ = ["infrared_radius", "lmin"]


def infrared_radius(E: float, q: float, sigma: float) -> float:
    """Confinement radius r = 2E/(q sigma) where the running phase stalls.

    With E the (reduced) constituent energy in GeV, q the colour charge and
    sigma the string tension in GeV/fm, the result is in fm.  E = 1.5 GeV
    would give 7.5 fm; the quoted ~4 fm corresponds to the reduced-mass
    reading E ~ 0.75 GeV.  Both readings use this same formula.
    """
    if not E > 0:
        raise ValueError(f"the energy E must be positive, got {E}")
    if q <= 0 or sigma <= 0:
        raise ValueError("coupling and string tension must be positive")
    if q * sigma == 0:
        raise ValueError(f"q * sigma underflows to 0 for q = {q}, sigma = {sigma}")
    return 2.0 * E / (q * sigma)


def lmin(a: float, b: float, c: float) -> float:
    """Minimal total flux-tube length for three charges on a triangle a,b,c.

    L_min = sqrt((a^2+b^2+c^2)/2 + (sqrt(3)/2) sqrt((a+b+c)(-a+b+c)(a-b+c)(a+b-c))).
    For a = b = c this is 3 times the circumradius distance a/sqrt(3).  When an
    angle is 120 degrees or more, the Fermat point is that vertex and L_min is
    the sum of the two shorter sides.
    """
    if min(a, b, c) < 0:
        raise ValueError("side lengths must be nonnegative")
    heron = (a + b + c) * (-a + b + c) * (a - b + c) * (a + b - c)
    if heron < 0:
        raise ValueError(f"triangle inequality violated for sides {(a, b, c)}")
    short, mid, long = sorted((a, b, c))
    if long * long >= short * short + mid * mid + short * mid:  # angle >= 120 degrees
        return short + mid
    return math.sqrt((a * a + b * b + c * c) / 2.0 + math.sqrt(3.0) / 2.0 * math.sqrt(heron))
