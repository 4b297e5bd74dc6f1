"""Fermion charge structures, the A/B/C/L tables, and their consequences.

Each fermion carries three charge types (e electric, s strong, w weak) tied
to the quaternion labels j, i, k, distributed over three colour slots
B, G, R.  A flavour's row pattern is fixed by its first-generation base
(u-like or d-like); higher generations replace the unit weak entry with the
conjugation-violation markers z_P (second) and z_T (third) and flip the
weak row sign.  Leptons put all structure on a single column.  The three
quark representations A, B and C differ only by which colour slot carries
each distinguished entry; the conventions here are the fixed permutation
patterns of the printed u and d rows.

Zero charges are counted per colour slot (z entries count as nonzero);
assigning a composite state's constituents to the colour slots in all ways
gives the candidate zero counts whose ground values feed the mass rule.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from itertools import permutations, product as _iproduct
from typing import NamedTuple

from . import algebra
from .datafiles import data_path

__all__ = [
    "FermionChargeSpec",
    "ChargeEntry",
    "ChargeTable",
    "SU5Grid",
    "QUARKS",
    "LEPTONS",
    "GENERATION",
    "fermion_spec",
    "build_tables",
    "tables_to_csv",
    "state_zero_candidates",
    "count_zeros",
    "multiplet_zero_candidates",
    "composite_weak_charge",
    "load_shipped_tables_csv",
    "su5_grid",
    "charge_dirac",
]

QUARKS = ("u", "d", "c", "s", "t", "b")
LEPTONS = ("nu_e", "e", "nu_mu", "mu", "nu_tau", "tau")
UP_TYPE = {"u", "c", "t", "nu_e", "nu_mu", "nu_tau"}

# generation -> (g, violation tag, weak marker)
GENERATION = {1: (-1, "none", "1"), 2: (1, "P", "z_P"), 3: (1, "T", "z_T")}
_GEN_OF = {
    "u": 1, "d": 1, "nu_e": 1, "e": 1,
    "c": 2, "s": 2, "nu_mu": 2, "mu": 2,
    "t": 3, "b": 3, "nu_tau": 3, "tau": 3,
}

COLOURS = ("B", "G", "R")
CHARGE_TYPES = ("e", "s", "w")


class FermionChargeSpec(NamedTuple):
    """Parameter block of the unified charge-structure generator."""

    flavour: str
    sigma_z: int          # -1 fermion, +1 antifermion
    a_idx: str            # axis of the strong unit
    b_idx: str            # axis of the electric unit
    c_idx: str            # axis of the weak unit
    isospin_m: int        # 1 = weak isospin up (filled electromagnetic vacuum)
    g: int
    violation_tag: str    # none | P | T

    @property
    def is_lepton(self) -> bool:
        return self.b_idx == self.c_idx

    @property
    def generation(self) -> int:
        return {(-1, "none"): 1, (1, "P"): 2, (1, "T"): 3}[(self.g, self.violation_tag)]

    def to_dict(self) -> dict:
        return {
            "flavour": self.flavour,
            "sigmaZ": self.sigma_z,
            "aIdx": self.a_idx,
            "bIdx": self.b_idx,
            "cIdx": self.c_idx,
            "isospinM": self.isospin_m,
            "g": self.g,
            "violationTag": self.violation_tag,
        }


def _strip_anti(flavour: str) -> tuple[str, bool]:
    for suffix in ("bar", "~"):
        if flavour.endswith(suffix):
            return flavour[: -len(suffix)], True
    return flavour, False


def fermion_spec(flavour: str, colour_assignment=None) -> tuple[FermionChargeSpec, str]:
    """Parameter block plus the charge-structure expression for one fermion.

    ``colour_assignment`` optionally gives the axis draw (a, b, c); quarks
    need b != c, leptons collapse all three onto one axis.  Antistates are
    named with a ``bar`` suffix and flip the overall sigma sign.
    """
    base, anti = _strip_anti(flavour)
    if base not in QUARKS + LEPTONS:
        raise ValueError(f"unknown flavour {flavour!r}")
    lepton = base in LEPTONS
    if colour_assignment is None:
        colour_assignment = ("x", "x", "x") if lepton else ("x", "y", "z")
    a, b, c = colour_assignment
    if lepton and not (a == b == c):
        raise ValueError("lepton axes must coincide (single phase)")
    if not lepton and b == c:
        raise ValueError("quark axes need b != c")
    gen = _GEN_OF[base]
    g, tag, marker = GENERATION[gen]
    up = base in UP_TYPE
    spec = FermionChargeSpec(flavour, 1 if anti else -1, a, b, c, 1 if up else 0, g, tag)

    # expression subscripts are the drawn labels themselves, leptons sharing one
    ea, sb, wc = ("a", "a", "a") if lepton else ("a", "b", "c")
    electric = f"-j(p_{ea} - 1)" if up else f"-j p_{ea}"
    weak = f"+ k p_{wc}" if gen == 1 else f"- {marker} k p_{wc}"
    terms = [electric] + ([] if lepton else [f"+ i p_{sb}"]) + [weak]
    sigma = "sigma" if anti else "-sigma"
    expr = f"{sigma}.({' '.join(terms)})"
    return spec, expr


# ---------------------------------------------------------------------------
# charge tables
# ---------------------------------------------------------------------------


class ChargeEntry(NamedTuple):
    value: str  # "0" | "1" | "z_P" | "z_T"
    label: str  # quaternion label i | j | k

    @property
    def is_zero(self) -> bool:
        return self.value == "0"

    def __str__(self):
        return f"{self.value}{self.label}"


def _row(pattern: str) -> tuple[ChargeEntry, ...]:
    """Parse a compact row pattern like '1j 1j 0i'."""
    return tuple(ChargeEntry(cell[:-1], cell[-1]) for cell in pattern.split())

# Base first-generation patterns; these are the whole content of the colour
# conventions distinguishing A, B and C.
_QUARK_BASE = {
    "A": {
        "u": {"e": "1j 1j 0i", "s": "1i 0k 0j", "w": "1k 0i 0k"},
        "d": {"e": "0j 0k 1j", "s": "1i 0i 0k", "w": "1k 0j 0i"},
    },
    "B": {
        "u": {"e": "1j 1j 0k", "s": "0i 0k 1i", "w": "1k 0i 0j"},
        "d": {"e": "0i 0k 1j", "s": "0j 0i 1i", "w": "1k 0j 0k"},
    },
    "C": {
        "u": {"e": "1j 1j 0k", "s": "0i 1i 0j", "w": "1k 0k 0i"},
        "d": {"e": "0j 0k 1j", "s": "0i 1i 0k", "w": "1k 0j 0i"},
    },
}
_LEPTON_BASE = {
    "nu": {"e": "1j 1j 0j", "s": "0k 0i 0i", "w": "0i 0k 1k"},
    "lep": {"e": "0i 0k 1j", "s": "0j 0i 0i", "w": "0k 0j 1k"},
}

_BASE_OF = {
    "u": "u", "c": "u", "t": "u", "d": "d", "s": "d", "b": "d",
    "nu_e": "nu", "nu_mu": "nu", "nu_tau": "nu",
    "e": "lep", "mu": "lep", "tau": "lep",
}


class ChargeRow(NamedTuple):
    sign: str  # "+" | "-"
    entries: tuple[ChargeEntry, ...]


class ChargeTable(NamedTuple):
    representation: str
    rows: dict  # (flavour, charge_type) -> ChargeRow

    def entry(self, flavour: str, charge_type: str, colour: str) -> ChargeEntry:
        return self.rows[(flavour, charge_type)].entries[COLOURS.index(colour)]

    def zeros_per_colour(self, flavour: str) -> dict[str, int]:
        out = {}
        for ci, colour in enumerate(COLOURS):
            out[colour] = sum(
                1 for t in CHARGE_TYPES if self.rows[(flavour, t)].entries[ci].is_zero
            )
        return out


def _generate_rows(flavour: str, base: dict) -> dict:
    gen = _GEN_OF[flavour]
    marker = GENERATION[gen][2]
    rows = {}
    for t in CHARGE_TYPES:
        entries = list(_row(base[t]))
        if t == "w" and gen > 1:
            entries = [
                ChargeEntry(marker, e.label) if e.value == "1" else e for e in entries
            ]
        if t == "e":
            sign = "+" if flavour in UP_TYPE else "-"
        elif t == "w":
            sign = "+" if gen == 1 else "-"
        else:
            sign = "+"
        rows[(flavour, t)] = ChargeRow(sign, tuple(entries))
    return rows


def build_tables() -> dict[str, ChargeTable]:
    """All four charge tables regenerated from the base patterns.

    Regeneration is deterministic and idempotent; the shipped CSV is the
    same data and the test suite checks cell-for-cell agreement.
    """
    tables = {}
    for rep in ("A", "B", "C"):
        rows = {}
        for q in QUARKS:
            rows.update(_generate_rows(q, _QUARK_BASE[rep][_BASE_OF[q]]))
        tables[rep] = ChargeTable(rep, rows)
    rows = {}
    for lep in LEPTONS:
        rows.update(_generate_rows(lep, _LEPTON_BASE[_BASE_OF[lep]]))
    tables["L"] = ChargeTable("L", rows)
    return tables


def load_shipped_tables_csv(data_dir=None) -> str:
    """The shipped charge-table CSV (same content build_tables regenerates)."""
    with open(data_path("charge_tables.csv", data_dir)) as fh:
        return fh.read()


def tables_to_csv(tables=None) -> str:
    """CSV dump: representation, flavour, chargeType, colour, value, quaternionLabel."""
    tables = tables or build_tables()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["representation", "flavour", "chargeType", "colour", "value", "quaternionLabel"])
    for rep in ("A", "B", "C", "L"):
        table = tables[rep]
        flavours = QUARKS if rep != "L" else LEPTONS
        for flavour in flavours:
            for t in CHARGE_TYPES:
                row = table.rows[(flavour, t)]
                for colour, entry in zip(COLOURS, row.entries):
                    writer.writerow([rep, flavour, f"{row.sign}{t}", colour, entry.value, entry.label])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# zero counting
# ---------------------------------------------------------------------------


def _parse_combo(combo) -> tuple[tuple[str, bool], ...]:
    """A combo is a baryon (three quarks) or a meson (quark + antiquark).

    Accepts "uud", "u,dbar", ("u", "dbar"), ...
    """
    if isinstance(combo, str):
        parts = combo.replace(",", " ").split()
        if len(parts) == 1 and all(ch in QUARKS for ch in parts[0]):
            parts = list(parts[0])
    else:
        parts = list(combo)
    parsed = tuple(_strip_anti(p) for p in parts)
    for base, _ in parsed:
        if base not in QUARKS:
            raise ValueError(f"invalid quark flavour {base!r} in combo {combo!r}")
    n_anti = sum(1 for _, anti in parsed if anti)
    if len(parsed) == 3 and n_anti == 0:
        return parsed
    if len(parsed) == 2 and n_anti == 1:
        return parsed
    raise ValueError(f"combo {combo!r} is neither a three-quark nor a quark-antiquark state")


def state_zero_candidates(combo, representation: str = "A", tables=None) -> tuple[int, ...]:
    """Distinct zero-charge counts of one composite state.

    Constituents are placed one per colour slot, in every assignment; each
    contributes the number of zero cells in its slot's column (z_P and z_T
    count as nonzero, being weak-equivalent to a unit).  Antiquark columns
    carry the same zero pattern as the quark ones.  For mesons, the quark
    and antiquark slots range independently; the candidate spread for
    mesons is wider than the counting below resolves, so meson ground
    values are taken from the measured-multiplet dataset rather than
    asserted from here.
    """
    tables = tables or build_tables()
    table = tables[representation]
    parsed = _parse_combo(combo)
    zpc = {f: table.zeros_per_colour(f) for f, _ in parsed}
    counts = set()
    if len(parsed) == 3:
        for perm in permutations(range(3)):
            counts.add(
                sum(zpc[parsed[k][0]][COLOURS[slot]] for slot, k in enumerate(perm))
            )
    else:
        for c1, c2 in _iproduct(COLOURS, COLOURS):
            counts.add(zpc[parsed[0][0]][c1] + zpc[parsed[1][0]][c2])
    return tuple(sorted(counts))


def count_zeros(states, representations=("A",), tables=None) -> dict:
    """Candidate zero-count multisets per combination and representation."""
    tables = tables or build_tables()
    out = {}
    for rep in representations:
        if rep == "L":
            raise ValueError("zero counting applies to the quark representations A, B, C")
        out[rep] = {
            str(state): state_zero_candidates(state, rep, tables) for state in states
        }
    return out


def multiplet_zero_candidates(states, representation: str = "A", tables=None) -> tuple[int, ...]:
    """Candidate totals over a multiplet: sums of the member candidates."""
    if not states:
        return (0,)
    totals = {0}
    for state in states:
        cands = state_zero_candidates(state, representation, tables)
        totals = {t + c for t in totals for c in cands}
    return tuple(sorted(totals))


# ---------------------------------------------------------------------------
# composite weak charge
# ---------------------------------------------------------------------------


class WeakChargeResult(NamedTuple):
    kind: str  # "w" | "0" | "alternatives"
    alternatives: tuple[str, ...]

    def __str__(self):
        return self.kind if self.kind != "alternatives" else "{" + ", ".join(self.alternatives) + "}"


def composite_weak_charge(combo) -> WeakChargeResult:
    """Weak charge structure of a baryon or meson.

    Baryons carry w; same-generation mesons carry 0; cross-generation
    mesons take the alternatives {0, +-(1+z)w} with z the violation marker
    of the higher generation (both markers for a 2nd x 3rd mix).
    """
    parsed = _parse_combo(combo)
    if len(parsed) == 3:
        return WeakChargeResult("w", ())
    gens = sorted(_GEN_OF[f] for f, _ in parsed)
    if gens[0] == gens[1]:
        return WeakChargeResult("0", ())
    markers = [GENERATION[g][2] for g in gens if g > 1]
    z = " ".join(markers)
    return WeakChargeResult("alternatives", ("0", f"+(1 + {z})w", f"-(1 + {z})w"))


# ---------------------------------------------------------------------------
# SU(5) / U(5) generator grid
# ---------------------------------------------------------------------------

_SU5_UNITS = ("s_G", "s_B", "s_R", "w", "e")


class SU5Grid(NamedTuple):
    extended: bool
    cells: dict  # (row unit, conjugate column unit) -> label

    @property
    def units(self) -> tuple[str, ...]:
        return _SU5_UNITS

    @property
    def generator_count(self) -> int:
        # 5x5 cells minus the overall trace; +1 for the U(5) extension
        return 25 - 1 + (1 if self.extended else 0)

    def cell(self, row: str, col: str) -> str:
        return self.cells[(row, col.replace("bar", "").strip("_ "))]


def su5_grid(extended: bool = False) -> SU5Grid:
    """Generator grid over the five charge units against their conjugates.

    Strong-strong cells are the gluons, strong-weak Y, strong-electric X,
    weak-electric the charged W pair, and the w/e diagonal the neutral
    Z0/photon mix.  The extension adds a 25th all-diagonal generator (the
    gravity/inertia singlet), turning SU(5) into U(5).
    """
    cells = {}
    strong = {"s_G", "s_B", "s_R"}
    for r in _SU5_UNITS:
        for c in _SU5_UNITS:
            if r in strong and c in strong:
                cells[(r, c)] = "Gluons"
            elif {r, c} <= {"w", "e"}:
                if r == c:
                    cells[(r, c)] = "Z0/gamma"
                else:
                    cells[(r, c)] = "W-" if (r, c) == ("w", "e") else "W+"
            elif "w" in (r, c):
                cells[(r, c)] = "Y"
            else:
                cells[(r, c)] = "X"
    return SU5Grid(extended, cells)


# ---------------------------------------------------------------------------
# Dirac-type equation for charge
# ---------------------------------------------------------------------------

_ISO_UP, _ISO_DOWN = (1, 0), (0, 1)


def _iso_mul(t1, t2):
    m1, i1 = t1
    m2, i2 = t2
    if i1 is not None and i2 is not None:
        dot = i1[0] * i2[0] + i1[1] * i2[1]
        return (m1 * m2 * Fraction(dot), None)
    return (m1 * m2, i1 if i1 is not None else i2)


def charge_dirac(w, s, e) -> list[Fraction]:
    """Row scalars of the charge analogue of the Dirac matrix equation.

    The 4x4 quaternion-entry matrix acts on the column of +-(kw + iis + ije)
    sign variants, the electric terms carrying weak-isospin two-spinors so
    that opposite isospins annihilate.  Every row reduces to the pure scalar
    -w^2 + s^2, independent of e; nonscalar or isospin residue raises.
    """
    w, s, e = Fraction(w), Fraction(s), Fraction(e)
    kw = algebra.MV("qk") * w
    iis = algebra.MV("i.qi") * s
    ije = algebra.MV("i.qj") * e
    rows = [
        [[(kw, None)], [], [(-ije, _ISO_UP)], [(-iis, None)]],
        [[], [(kw, None)], [(-iis, None)], [(ije, _ISO_DOWN)]],
        [[(-ije, _ISO_DOWN)], [(iis, None)], [(-kw, None)], []],
        [[(iis, None)], [(ije, _ISO_UP)], [], [(-kw, None)]],
    ]
    column = [
        [(kw, None), (iis, None), (ije, _ISO_UP)],
        [(kw, None), (iis, None), (-ije, _ISO_DOWN)],
        [(-kw, None), (-iis, None), (ije, _ISO_DOWN)],
        [(-kw, None), (-iis, None), (-ije, _ISO_UP)],
    ]
    scalars = []
    for row in rows:
        plain = algebra.Multivector()
        iso_residue: dict = {}
        for entry_terms, col_terms in zip(row, column):
            for t1 in entry_terms:
                for t2 in col_terms:
                    mv, tag = _iso_mul(t1, t2)
                    if tag is None:
                        plain = plain + mv
                    else:
                        iso_residue[tag] = iso_residue.get(tag, algebra.Multivector()) + mv
        if any(not v.is_zero for v in iso_residue.values()):
            raise AssertionError("isospin-tagged terms failed to cancel")
        if not plain.is_scalar:
            raise AssertionError(f"row did not reduce to a scalar: {plain}")
        scalars.append(plain.scalar_part)
    return scalars
