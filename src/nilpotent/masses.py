"""Hadron, boson and fermion mass calculators built on zero-charge counting.

The fundamental mass quantum is the unit-coupling value m_e/alpha (about
70 MeV); a multiplet with n_0 zero charges at multiplicity M inside a family
whose highest multiplicity is M_0 weighs n_0 M_0 / M units.  The multiplet
dataset (quark contents, multiplicities, measured values) ships as CSV and
has one reader, load_multiplets, which checks every cell once; the formula
is written once, in Multiplet.predicted_units.  The candidate n_0 lists of
the decuplet and octet are counted from the charge tables as the dataset is
read; a meson or illustrative row carries its own list, the counting recipe
being underdetermined there.  Every physical constant is the caller's, read
from constants.json: no default repeats one.

On top of that sit the electroweak boson block (Higgs 2592 zeros, Z half of
that, M_W = M_Z cos(theta_W), vacuum value f = 3 M_W alongside the empirical
246 GeV), the coupling partition sum sqrt(8/3) g, the generation splitting
by powers of alpha, the idealized generation-mixing rotation with Cabibbo
parameter 1/4, the running-mass ratio formulas for m_b/m_tau and m_s/m_mu,
and the Regge relation J = m^2 / (2 pi kappa).
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import sys
from typing import NamedTuple

from . import InvalidDataError, MissingDataError, _echo, charges
from .datafiles import DatasetRecord
from .datafiles import data_path as _data_path

__all__ = [
    "MassUnit",
    "Multiplet",
    "Multiplets",
    "BosonBlock",
    "load_constants",
    "load_multiplets",
    "family_table",
    "zero_counts",
    "gmo_octet_residual",
    "gmo_meson_k",
    "higgs_zero_count",
    "z_zero_count",
    "higgs_mass",
    "electroweak_bosons",
    "fermion_coupling_sum",
    "mass_fraction",
    "generation_partition",
    "ckm_ideal",
    "ckm_apply",
    "mb_over_mtau",
    "ms_over_mmu",
    "regge_mass_squared",
    "regge_spin",
]

_OBJECTS = ("ratio_formula_inputs",)
_BELOW_ONE = ("sin2_theta_w_ideal", "cabibbo_lambda")


def load_constants(data_dir=None) -> dict:
    """The constants file; ratio_formula_inputs must be an object, and every
    other value, nested ones included, a finite number above 0 (the mixing
    angle and the Cabibbo parameter also below 1), else InvalidDataError."""
    path = _data_path("constants.json", data_dir)
    with open(path, encoding="utf-8") as fh, _utf8(path):
        try:
            constants = json.load(fh, object_hook=lambda d: DatasetRecord(path, d))
        except UnicodeDecodeError:
            raise
        except ValueError as exc:  # not JSON, or an integer past the interpreter's digit limit
            raise InvalidDataError(f"{path}: not readable JSON ({exc})") from None
    _check_values(path, "", constants)
    return constants


@contextlib.contextmanager
def _utf8(path: str):
    """A dataset file that is not UTF-8 text is invalid data naming it."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise InvalidDataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _check_values(path: str, prefix: str, record: dict) -> None:
    for key, value in record.items():
        name = prefix + key
        if name in _OBJECTS and isinstance(value, dict):
            _check_values(path, name + ".", value)
            continue
        below_one = name in _BELOW_ONE
        # bool is an int; NaN fails every comparison, so it is rejected here too
        if (name in _OBJECTS or isinstance(value, bool) or not isinstance(value, (int, float))
                or not 0 < value < (1 if below_one else sys.float_info.max)):
            expected = ("an object" if name in _OBJECTS else "a number between 0 and 1"
                        if below_one else "a finite number above 0")
            raise InvalidDataError(f"{path}: {_echo(name)} is {_echo(json.dumps(value))}, "
                                   f"expected {expected}")


class MassUnit(NamedTuple):
    """The m_e/alpha quantum: one unit per zeroed charge."""

    electron_mass_gev: float
    alpha: float

    @property
    def unit_gev(self) -> float:
        return self.electron_mass_gev / self.alpha

    @classmethod
    def from_constants(cls, constants: dict) -> "MassUnit":
        return cls(constants["electron_mass_gev"], 1.0 / constants["inv_alpha_low_energy"])


class Multiplet(NamedTuple):
    family: str
    name: str
    contents: tuple[str, ...]
    n0_candidates: tuple[int, ...]
    multiplicity: int          # M
    max_multiplicity: int      # M_0
    measured_units_lo: "float | None"
    measured_units_hi: "float | None"
    note: str

    @property
    def predicted_units(self) -> tuple[float, float]:
        """n_0 M_0 / M units at the least and at the greatest candidate n_0."""
        return tuple(n0 * self.max_multiplicity / self.multiplicity
                     for n0 in (min(self.n0_candidates), max(self.n0_candidates)))


class Multiplets(list):
    """The rows of one multiplets file; a lookup that finds none names the file."""

    def __init__(self, source: str):
        super().__init__()
        self.source = source

    def find(self, family: str, name: "str | None" = None) -> list[Multiplet]:
        """The rows of ``family``, or its row ``name``; none is MissingDataError."""
        rows = [m for m in self if m.family == family and name in (None, m.name)]
        if not rows:
            raise MissingDataError(f"{self.source} has no {family} "
                                   + (f"row {name}" if name else "rows"))
        return rows

    def gmo_inputs(self, family: str, ground: str, *measured: str) -> list[float]:
        """The predicted ground value of row ``ground`` and the measured values
        of the ``measured`` rows of ``family``: a GMO relation's arguments."""
        inputs = [self.find(family, ground)[0].predicted_units[0]]
        for name in measured:
            value = self.find(family, name)[0].measured_units_lo
            if value is None:
                raise InvalidDataError(f"{self.source}: the {family} row {name} has no "
                                       "measured_units_lo, which the GMO relation reads")
            inputs.append(value)
        return inputs


_FAMILIES = ("decuplet", "octet", "meson", "illustrative")
_BARYON_FAMILIES = _FAMILIES[:2]
_COLUMNS = ("family", "name", "content", "n0_candidates", "M", "M0",
            "measured_units_lo", "measured_units_hi", "note")


def load_multiplets(data_dir=None) -> Multiplets:
    """The dataset's rows, every cell checked as it is read.

    A missing column is MissingDataError, and a cell outside its domain is
    InvalidDataError naming the file, the row, the column and the value.  The
    domain: ``family`` one of decuplet, octet, meson, illustrative; ``M`` and
    ``M0`` integers of at least 1; each measured value empty or a finite
    number of at least 0.  A baryon row's n_0 candidates are counted from the
    charge tables, so its ``content`` must be states they count and its
    ``n0_candidates`` cell empty; any other row's cell is a |-separated list
    of integers of at least 0.
    """
    path = _data_path("multiplets.csv", data_dir)
    tables = charges.build_tables()
    rows = Multiplets(path)
    with open(path, encoding="utf-8", newline="") as fh, _utf8(path):
        reader = csv.DictReader(fh, restval="")
        for column in _COLUMNS:
            if column not in (reader.fieldnames or ()):
                raise MissingDataError(f"{path} has no column {column!r}")
        for rec in reader:
            row = _multiplet(path, rec, tables)
            if any(m.family == row.family and m.name == row.name for m in rows):
                raise InvalidDataError(
                    f"{path}: the {row.family} row {_echo(row.name)} appears twice")
            rows.append(row)
    return rows


def _multiplet(path: str, rec: dict, tables) -> Multiplet:
    family, name, cell = rec["family"], rec["name"], rec["n0_candidates"]
    contents = tuple(rec["content"].split("|"))

    def refuse(column, expected):
        return InvalidDataError(f"{path}: the row {_echo(name)} has {column} "
                                f"{_echo(repr(rec[column]))}, expected {expected}")

    def integers(column, least, many=False):
        # the length test comes first: int() of a long enough cell raises
        cells = rec[column].split("|") if many else [rec[column]]
        if all(c.isascii() and c.isdigit() and len(c) <= 16 and least <= int(c) <= 2**53
               for c in cells):
            return tuple(int(c) for c in cells)
        raise refuse(column, f"{'|-separated integers' if many else 'an integer'} of at least "
                             f"{least} and at most 2^53")

    if None in rec:  # csv.DictReader files the cells past the header under None
        raise InvalidDataError(f"{path}: the row {_echo(name)} has more cells than the header "
                               f"({len(rec[None])} more)")

    def measured(column):
        if not rec[column]:
            return None
        try:
            value = float(rec[column])
        except ValueError:
            value = math.nan
        if not 0 <= value < math.inf:  # NaN fails every comparison
            raise refuse(column, "empty or a finite number of at least 0")
        return value

    if family not in _FAMILIES:
        raise refuse("family", "one of " + ", ".join(_FAMILIES))
    if family not in _BARYON_FAMILIES:
        n0 = integers("n0_candidates", 0, many=True)
    elif cell:
        raise InvalidDataError(f"{path}: the {family} row {_echo(name)} fills n0_candidates "
                               f"with {_echo(repr(cell))}, which the charge tables give")
    else:
        try:
            n0 = charges.multiplet_zero_candidates(contents, "A", tables)
        except ValueError as exc:
            raise refuse("content", f"states the charge tables count ({exc})") from None
    (m,), (m0,) = integers("M", 1), integers("M0", 1)
    return Multiplet(family, name, contents, n0, m, m0, measured("measured_units_lo"),
                     measured("measured_units_hi"), rec["note"])


def family_table(multiplets: Multiplets, family: str, unit: MassUnit) -> list[dict]:
    """The report rows of one family of the loaded multiplets.

    The spin-3/2 decuplet predicts (20, 20, 22, 24) units from ground n_0; the
    spin-1/2 octet's non-N rows are ranges, pinned by the GMO constraint; the
    pseudoscalar mesons' K and eta ranges are pinned by the quadratic GMO form.
    A family without rows is MissingDataError naming the file.
    """
    rows = []
    for m in multiplets.find(family):
        lo, hi = m.predicted_units
        rows.append(
            {
                "name": m.name,
                "content": "|".join(m.contents),
                "n0_candidates": list(m.n0_candidates),
                "M": m.multiplicity,
                "M0": m.max_multiplicity,
                "predicted_units": lo,
                "predicted_units_hi": hi,
                "predicted_gev": lo * unit.unit_gev,
                "measured_units": m.measured_units_lo,
                "measured_units_hi": m.measured_units_hi,
                "note": m.note,
            }
        )
    return rows


def zero_counts(multiplets: list[Multiplet]) -> dict[str, list[int]]:
    """The n_0 candidates of each baryon content, under the first row holding it."""
    first = {}
    for m in multiplets:
        if m.family in _BARYON_FAMILIES:
            first.setdefault(m.contents, m)
    return {m.name: list(m.n0_candidates) for m in first.values()}


def gmo_octet_residual(m_n: float, m_lambda: float, m_sigma: float, m_xi: float) -> float:
    """(m_N + m_Xi)/2 - (3 m_Lambda + m_Sigma)/4, any consistent mass units."""
    return 0.5 * (m_n + m_xi) - 0.75 * m_lambda - 0.25 * m_sigma


def gmo_meson_k(m_pi: float, m_eta: float) -> float:
    """m_K = sqrt(m_pi^2/4 + 3 m_eta^2/4)."""
    return math.sqrt(0.25 * m_pi * m_pi + 0.75 * m_eta * m_eta)


# ---------------------------------------------------------------------------
# boson block
# ---------------------------------------------------------------------------

_FLAVOURS = 6
_COLOURS = 3
_CHARGE_SLOTS = 3 + 3  # three charge types on each side of the pairing
_ALL_REPRESENTATIONS = 4


def higgs_zero_count(representations: int = _ALL_REPRESENTATIONS) -> int:
    """Zeros over all fermion-antifermion pairings: 6*6*3*(3+3) per
    representation, 2592 over the four tables."""
    return _FLAVOURS * _FLAVOURS * _COLOURS * _CHARGE_SLOTS * representations


def z_zero_count() -> int:
    """Electroweak-only count: the strong tables collapse, 2 representations."""
    return higgs_zero_count(representations=2)


def higgs_mass(unit: MassUnit) -> float:
    return higgs_zero_count() * unit.unit_gev


class BosonBlock(NamedTuple):
    m_z: float
    sin2_theta_w: float
    m_w_predicted: float
    m_w_measured: float
    f_from_mw: float       # 3 M_W, the three-phase reading
    f_empirical: float     # from the Fermi constant
    m_top: float           # f_empirical / sqrt(2)
    m_higgs: float
    m_z_from_zeros: float

    def to_dict(self) -> dict:
        return {
            "M_Z": self.m_z,
            "sin2_theta_w": self.sin2_theta_w,
            "M_W_predicted": self.m_w_predicted,
            "M_W_measured": self.m_w_measured,
            "f_3MW": self.f_from_mw,
            "f_empirical": self.f_empirical,
            "m_top": self.m_top,
            "m_higgs": self.m_higgs,
            "M_Z_from_zeros": self.m_z_from_zeros,
        }


def electroweak_bosons(m_z: float, sin2: float, m_w_measured: float, f_empirical: float,
                       unit: MassUnit) -> BosonBlock:
    """M_W = M_Z cos(theta_W), the vacuum value f and the top mass f/sqrt(2).

    The three-phase vacuum reading uses the measured W mass (3 x 80.45 =
    241.35 GeV); the top comes from the empirical 246 GeV.  The zero-count
    masses for the Higgs and Z ride along for the report.
    """
    if not 0 < sin2 < 1:
        raise ValueError("sin^2(theta_W) must lie in (0, 1)")
    return BosonBlock(
        m_z=m_z,
        sin2_theta_w=sin2,
        m_w_predicted=m_z * math.sqrt(1.0 - sin2),
        m_w_measured=m_w_measured,
        f_from_mw=3.0 * m_w_measured,
        f_empirical=f_empirical,
        m_top=f_empirical / math.sqrt(2.0),
        m_higgs=higgs_mass(unit),
        m_z_from_zeros=z_zero_count() * unit.unit_gev,
    )


def fermion_coupling_sum(g: float, sin2: float) -> float:
    """Total coupling over the fermion states: (g/sqrt(2)) (2/cos(theta_W));
    sqrt(8/3) g at the ideal sin^2 = 1/4."""
    return g / math.sqrt(2.0) * 2.0 / math.sqrt(1.0 - sin2)


def mass_fraction(g_f: float, g: float) -> float:
    """m/M_H = (g_f/g) sqrt(3/8)."""
    return g_f / g * math.sqrt(3.0 / 8.0)


def generation_partition(total: float, alpha: float) -> tuple[float, float, float]:
    """Split a total over three generations in geometric ratio alpha.

    G1 (1 + alpha + alpha^2) = total, G2 = alpha G1, G3 = alpha G2.  With
    182 GeV and the low-energy alpha this gives (180.7, 1.32, 0.0096); the
    quoted lepton-adjusted triple (179, 1.3, 9.5e-3) sits within 2%.
    """
    if total <= 0:
        raise ValueError("total must be positive")
    g1 = total / (1.0 + alpha + alpha * alpha)
    return g1, alpha * g1, alpha * alpha * g1


# ---------------------------------------------------------------------------
# idealized generation mixing
# ---------------------------------------------------------------------------


def ckm_ideal(lam: float) -> list[list[float]]:
    """Idealized mixing matrix: unit diagonal, +-lambda and +-lambda^2
    cross terms, zero corners (A = 1, rho = eta = 0)."""
    l2 = lam * lam
    return [[1.0, lam, 0.0], [-lam, 1.0, l2], [0.0, -l2, 1.0]]


def ckm_apply(leptons: tuple[float, float, float], lam: float) -> dict:
    """Rotate the (e, mu, tau) mass eigenstates into weak eigenstates.

    Returns the rotated triple and the successive ratios; with the standard
    lepton masses and lambda = 1/4 the rotated values are (0.0269, 0.216,
    1.763) GeV with ratios close to 8, i.e. 1/alpha_3 at the splitting scale.
    """
    if not 0 <= lam < 1:
        raise ValueError("lambda must lie in [0, 1)")
    if min(leptons) <= 0:
        raise ValueError("lepton masses must be positive")
    matrix = ckm_ideal(lam)
    rotated = tuple(sum(matrix[i][k] * leptons[k] for k in range(3)) for i in range(3))
    return {
        "rotated": rotated,
        "mu_over_e": rotated[1] / rotated[0],
        "tau_over_mu": rotated[2] / rotated[1],
    }


# ---------------------------------------------------------------------------
# running-mass ratio formulas
# ---------------------------------------------------------------------------


def mb_over_mtau(alpha3_mu: float, alpha3_mt: float, alpha3_mx: float,
                 alpha_ratio_term: float) -> float:
    """alpha_3(mu)^(12/23) alpha_3(m_t)^(8/161) alpha_3(M_X)^(-4/7) times the
    (alpha(mu)/alpha(M_W))^(10/41) factor, the last passed already raised."""
    if min(alpha3_mu, alpha3_mt, alpha3_mx, alpha_ratio_term) <= 0:
        raise ValueError("couplings must be positive")
    return (
        alpha3_mu ** (12.0 / 23.0)
        * alpha3_mt ** (8.0 / 161.0)
        * alpha3_mx ** (-4.0 / 7.0)
        * alpha_ratio_term
    )


def ms_over_mmu(alpha3_mu: float, alpha3_mc: float, alpha3_mx: float,
                alpha_ratio_term: float) -> float:
    """Same exponents with alpha_3(m_c) replacing alpha_3(m_t)."""
    return mb_over_mtau(alpha3_mu, alpha3_mc, alpha3_mx, alpha_ratio_term)


# ---------------------------------------------------------------------------
# Regge relation
# ---------------------------------------------------------------------------


def regge_mass_squared(spin: float, two_pi_kappa: float) -> float:
    """m^2 = J * 2 pi kappa with the slope near 0.9 GeV^2."""
    if spin < 0:
        raise ValueError("spin must be nonnegative")
    if two_pi_kappa <= 0:
        raise ValueError("slope must be positive")
    return spin * two_pi_kappa


def regge_spin(mass_squared: float, two_pi_kappa: float) -> float:
    """Inverse relation J = m^2 / (2 pi kappa)."""
    if two_pi_kappa <= 0:
        raise ValueError("slope must be positive")
    return mass_squared / two_pi_kappa
