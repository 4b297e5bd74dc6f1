"""One-loop running couplings and the grand-unification solve.

The three inverse couplings run logarithmically between the probe scale mu
and the unification scale M_X:

    1/alpha_2(mu) = 1/alpha_G - (5/6 pi) ln(M_X^2/mu^2)
    1/alpha_3(mu) = 1/alpha_G - (7/4 pi) ln(M_X^2/mu^2)
    1/alpha(mu)   = 1/alpha_G + (3/pi)   ln(M_X^2/mu^2)

with the pure electromagnetic coefficient 3/pi coming from the lepton-like
(integral) quark charge assignments.  Eliminating alpha_G between the well
established weak/strong equations and sin^2(theta_W) = alpha/alpha_2 gives

    sin^2(theta_W)(mu) = alpha(mu) (1/alpha_3(mu) + (11/6 pi) ln(M_X/mu)),

solvable for M_X; with sin^2 = 1/4 and the measured alpha, alpha_3 at M_Z
this lands at the order of the Planck mass.  The minimal-SU(5) pipeline
(hypercharge-mixed alpha_1 with coefficient 1/pi and the 5/3 Clebsch-Gordan
normalization) is kept alongside for comparison, including the demonstration
that reapplying its renormalized mixing angle at the unification scale is
inconsistent with the 3/8 it was derived from.

Everything is one loop; no thresholds, no two-loop corrections.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "ChargeContent",
    "sin2_from_content",
    "phenomenological_content",
    "lepton_like_content",
    "run_alpha2",
    "run_alpha3",
    "run_alpha_em",
    "solve_MX",
    "alphaG_at",
    "sin2_at",
    "mu_for_alpha3",
    "b1_coefficient",
    "B1_CONVENTIONAL",
    "B1_LEPTON_LIKE",
    "legacy_su5",
    "solve_legacy_su5",
    "LegacySU5Report",
    "coupling_table",
]

# ln coefficients of ln(M_X^2/mu^2)
_C2 = 5.0 / (6.0 * math.pi)
_C3 = 7.0 / (4.0 * math.pi)
_CEM = 3.0 / math.pi
_C1_SU5 = 1.0 / math.pi


def _log_ratio2(m_x: float, mu: float) -> float:
    if not 0 < mu <= m_x:
        raise ValueError(f"need 0 < mu <= M_X, got mu={mu}, M_X={m_x}")
    return 2.0 * math.log(m_x / mu)


# ---------------------------------------------------------------------------
# mixing angle from charge content
# ---------------------------------------------------------------------------


class ChargeContent(NamedTuple):
    """Weak isospin and electric charge assignments over the fermion states."""

    t3_values: tuple
    q_values: tuple


def sin2_from_content(content: ChargeContent):
    """sin^2(theta_W) = sum(t3^2) / sum(Q^2), exact for exact inputs."""
    t3sq = sum(Fraction(t) ** 2 for t in content.t3_values)
    qsq = sum(Fraction(q) ** 2 for q in content.q_values)
    if qsq == 0:
        raise ValueError("all-zero electric charge list")
    return t3sq / qsq


def _doublet_t3() -> tuple:
    # one generation of left-handed states: 3 colours of u and d, nu, e
    half = Fraction(1, 2)
    return (half,) * 3 + (-half,) * 3 + (half, -half)


def phenomenological_content() -> ChargeContent:
    """Fractional quark charges, both chiralities: sin^2 = 3/8."""
    q = (Fraction(2, 3),) * 3 + (Fraction(-1, 3),) * 3 + (Fraction(-1), Fraction(0))
    return ChargeContent(_doublet_t3(), q + q)


def lepton_like_content() -> ChargeContent:
    """Integral (lepton-like) quark charges, both chiralities: sin^2 = 1/4."""
    q = (Fraction(1), Fraction(1), Fraction(0),
         Fraction(0), Fraction(0), Fraction(-1),
         Fraction(-1), Fraction(0))
    return ChargeContent(_doublet_t3(), q + q)


# ---------------------------------------------------------------------------
# one-loop running
# ---------------------------------------------------------------------------


def run_alpha2(alpha_g: float, m_x: float, mu: float) -> float:
    """1/alpha_2(mu) = 1/alpha_G - (5/6 pi) ln(M_X^2/mu^2)."""
    return 1.0 / alpha_g - _C2 * _log_ratio2(m_x, mu)


def run_alpha3(alpha_g: float, m_x: float, mu: float) -> float:
    """1/alpha_3(mu) = 1/alpha_G - (7/4 pi) ln(M_X^2/mu^2)."""
    return 1.0 / alpha_g - _C3 * _log_ratio2(m_x, mu)


def run_alpha_em(alpha_g: float, m_x: float, mu: float) -> float:
    """1/alpha(mu) = 1/alpha_G + (3/pi) ln(M_X^2/mu^2) (lepton-like hypercharges)."""
    return 1.0 / alpha_g + _CEM * _log_ratio2(m_x, mu)


def alphaG_at(alpha3_at_mu: float, m_x: float, mu: float) -> float:
    """Unified coupling from the strong one: 1/alpha_G = 1/alpha_3 + (7/4 pi) ln(M_X^2/mu^2)."""
    return 1.0 / (1.0 / alpha3_at_mu + _C3 * _log_ratio2(m_x, mu))


def sin2_at(alpha_at_mu: float, alpha3_at_mu: float, m_x: float, mu: float) -> float:
    """sin^2(theta_W)(mu) = alpha (1/alpha_3 + (11/6 pi) ln(M_X/mu))."""
    return alpha_at_mu * (1.0 / alpha3_at_mu + 11.0 / (6.0 * math.pi) * math.log(m_x / mu))


def solve_MX(alpha_at_mu: float, alpha3_at_mu: float, sin2: float, mu: float) -> float:
    """Unification scale from the combined mixing relation.

    M_X = mu exp((sin^2/alpha - 1/alpha_3) 6 pi / 11); raises when the
    bracket is negative (no solution above mu).
    """
    bracket = sin2 / alpha_at_mu - 1.0 / alpha3_at_mu
    if bracket < 0:
        raise ValueError("no unification scale above mu: sin^2/alpha < 1/alpha_3")
    return mu * math.exp(bracket * 6.0 * math.pi / 11.0)


def mu_for_alpha3(alpha3_target: float, alpha_g: float, m_x: float) -> float:
    """Scale where the strong coupling reaches the target value."""
    log2 = (1.0 / alpha_g - 1.0 / alpha3_target) / _C3
    if log2 < 0:
        raise ValueError("target strong coupling is weaker than the unified one")
    return m_x * math.exp(-log2 / 2.0)


# ---------------------------------------------------------------------------
# vacuum polarization coefficients
# ---------------------------------------------------------------------------

# squared-charge (value, multiplicity) lists entering the fermionic vacuum
# polarization; conventional fractional hypercharges versus lepton-like ones
B1_CONVENTIONAL = (
    (Fraction(1, 36), 3),
    (Fraction(1, 36), 3),
    (Fraction(1, 9), 3),
    (Fraction(4, 9), 3),
    (Fraction(1, 4), 1),
    (Fraction(1, 4), 1),
    (Fraction(1), 1),
)
B1_LEPTON_LIKE = (
    (Fraction(1, 4), 3),
    (Fraction(1, 4), 3),
    (Fraction(1), 1),
    (Fraction(1), 1),
    (Fraction(0), 1),
    (Fraction(0), 1),
    (Fraction(0), 1),
    (Fraction(1), 1),
    (Fraction(1, 4), 1),
    (Fraction(1, 4), 1),
    (Fraction(1), 1),
)


def b1_coefficient(assignments) -> Fraction:
    """Fermionic vacuum-polarization coefficient, in units of 1/pi.

    (4/3)(1/2) sum(q^2 mult) n_g / 4 with n_g = 3 generations, exact over
    1/pi; the conventional assignments give 5/3, the lepton-like ones 3.
    """
    if not assignments:
        raise ValueError("empty assignment list")
    total = sum(Fraction(q) * mult for q, mult in assignments)
    return Fraction(4, 3) * Fraction(1, 2) * total * 3 / 4


# ---------------------------------------------------------------------------
# minimal SU(5) comparison pipeline
# ---------------------------------------------------------------------------


def legacy_su5(mu: float, alpha_g: float, m_x: float) -> tuple[float, float, float]:
    """Minimal-SU(5) values at mu: (1/alpha_1, mixed 1/alpha, sin^2 renormalized).

    1/alpha_1 = 1/alpha_G + (1/pi) ln(M_X^2/mu^2); the mixed electromagnetic
    inverse coupling is 5/(3 alpha_1) + 1/alpha_2 and the renormalized angle
    is alpha/alpha_2.
    """
    log2 = _log_ratio2(m_x, mu)
    inv_a1 = 1.0 / alpha_g + _C1_SU5 * log2
    inv_a2 = 1.0 / alpha_g - _C2 * log2
    inv_a = 5.0 / 3.0 * inv_a1 + inv_a2
    sin2 = inv_a2 / inv_a  # alpha/alpha_2
    return inv_a1, inv_a, sin2


class LegacySU5Report(NamedTuple):
    m_x: float
    alpha_g: float
    inv_alpha1_mu: float
    inv_alpha2_mu: float
    inv_alpha_mu: float
    sin2_renormalized: float
    sin2_recomputed_at_mx: float

    def to_dict(self) -> dict:
        return {
            "M_X": self.m_x,
            "inv_alpha_G": 1.0 / self.alpha_g,
            "inv_alpha1_mu": self.inv_alpha1_mu,
            "inv_alpha2_mu": self.inv_alpha2_mu,
            "inv_alpha_mu": self.inv_alpha_mu,
            "sin2_renormalized": self.sin2_renormalized,
            "sin2_recomputed_at_MX": self.sin2_recomputed_at_mx,
        }


def solve_legacy_su5(inv_alpha_mu: float, inv_alpha3_mu: float, mu: float) -> LegacySU5Report:
    """Fit the minimal-SU(5) system to (alpha, alpha_3) at mu.

    Two unknowns (1/alpha_G and the log), two equations: the strong running
    and the mixed 5/(3 alpha_1) + 1/alpha_2 = 1/alpha combination.  The
    solve lands near 10^15 GeV with a renormalized mixing angle of about
    0.2; recomputing the angle at the unification scale from the same
    constants (unified alpha against the renormalized alpha_2) gives about
    0.6, the advertised inconsistency of the minimal scheme.
    """
    # (8/3) x + (5/6 pi) L = 1/alpha ; x - (7/4 pi) L = 1/alpha_3
    denom = 8.0 / 3.0 * _C3 + _C2
    log2 = (inv_alpha_mu - 8.0 / 3.0 * inv_alpha3_mu) / denom
    x = inv_alpha3_mu + _C3 * log2
    m_x = mu * math.exp(log2 / 2.0)
    inv_a1, inv_a, sin2 = legacy_su5(mu, 1.0 / x, m_x)
    inv_a2 = x - _C2 * log2
    sin2_at_mx = inv_a2 / x  # alpha_G against the renormalized weak coupling
    return LegacySU5Report(m_x, 1.0 / x, inv_a1, inv_a2, inv_a, sin2, sin2_at_mx)


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------


def coupling_table(alpha_g: float, m_x: float, mus) -> list[dict]:
    """Inverse couplings over a mu grid (for the CLI report path)."""
    rows = []
    for mu in mus:
        rows.append(
            {
                "mu": mu,
                "inv_alpha2": run_alpha2(alpha_g, m_x, mu),
                "inv_alpha3": run_alpha3(alpha_g, m_x, mu),
                "inv_alpha_em": run_alpha_em(alpha_g, m_x, mu),
            }
        )
    return rows
