"""Nilpotent state vectors (+-ikE +- i p + jm) and their exact products.

A state with energy E, momentum p and rest mass m is realized in the pinned
mapping-2 units as

    signE * (i qk) E  +  signP * (qi vi px + qi vj py + qi vk pz)  +  qj m,

which squares to exactly (E^2 - p^2 - m^2) times the scalar blade, so the
state is nilpotent precisely on the mass shell.  The P, T and C conjugations
are sandwich products by the charge quaternions qi, qk and -qj; bosons,
baryon phase triples, vacuum reflections and the four electroweak vertex
sums are all finite exact products of these states.

Sign conventions here are representation dependent (the vacuum factor is
-2iE per step, the baryon triple carries +p^2, the massive vertex scalar is
-8m^2); magnitudes are representation independent.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, reduce
from typing import NamedTuple

from .algebra import MV, Multivector, _ratio, _reduced, gamma_pentad

__all__ = [
    "NilpotentVector",
    "Spinor4",
    "PAIRING_KINDS",
    "make_nilpotent",
    "make_spinor",
    "conjugate",
    "conjugate_realized",
    "chain_product",
    "spinor_pair_sum",
    "baryon_product",
    "BARYON_PHASES",
    "vacuum_reflect",
    "vacuum_chain",
    "vertex_sum",
    "vertex_report",
    "product_report",
]

PENTAD = gamma_pentad("mapping-2")
_MASS_UNIT = MV("qj")
_I, _QI, _QJ, _QK = MV("i"), MV("qi"), MV("qj"), MV("qk")
# (blade, sign) of the signed blades carrying E, px, py, pz and m, read from
# the pentad so that a sign there reaches every realized state
_STATE_UNITS = [(k, 1 if c > 0 else -1) for u in (*PENTAD[:4], _MASS_UNIT)
                for k, c in u.blades().items()]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# A NamedTuple body may not define __new__, so a record that checks its fields
# subclasses them; NilpotentVector keeps a __dict__ to cache ``realized``.
class _NilpotentFields(NamedTuple):
    E: Fraction
    p: tuple[Fraction, Fraction, Fraction]
    m: Fraction
    sign_e: int = 1
    sign_p: int = 1


class NilpotentVector(_NilpotentFields):
    """The (E, p, m) state vector with its two free sign choices."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.sign_e not in (1, -1) or self.sign_p not in (1, -1):
            raise ValueError("sign_e and sign_p must be +/-1")
        return self

    def _cleared(self) -> tuple[int, list[int]]:
        """(d, numerators of E, px, py, pz, m over d): d > 0 is the lcm of the
        reduced denominators, so the numerators share no factor with it.
        A field that is not an exact rational raises TypeError."""
        ratios = [_ratio(v) for v in (self.E, *self.p, self.m)]
        d = math.lcm(*[b for _, b in ratios])
        return d, [a * (d // b) for a, b in ratios]

    @cached_property
    def realized(self) -> Multivector:
        d, numerators = self._cleared()
        signs = (self.sign_e, self.sign_p, self.sign_p, self.sign_p, 1)
        return _reduced(d, {k: n if c == s else -n
                            for (k, c), n, s in zip(_STATE_UNITS, numerators, signs) if n})

    @property
    def p_squared(self) -> Fraction:
        return sum((c * c for c in self.p), Fraction(0))

    @property
    def mass_shell_defect(self) -> Fraction:
        """E^2 - p^2 - m^2; zero exactly when the state is nilpotent.

        Computed on the cleared numerators, with no multivector product, so
        it checks the product tables rather than repeating them."""
        d, (e, px, py, pz, m) = self._cleared()
        return Fraction(e * e - px * px - py * py - pz * pz - m * m, d * d)

    @property
    def on_shell(self) -> bool:
        return self.mass_shell_defect == 0

    def with_signs(self, sign_e: int, sign_p: int) -> "NilpotentVector":
        return NilpotentVector(self.E, self.p, self.m, sign_e, sign_p)

    def flip_e(self) -> "NilpotentVector":
        return self.with_signs(-self.sign_e, self.sign_p)

    def flip_p(self) -> "NilpotentVector":
        return self.with_signs(self.sign_e, -self.sign_p)

    def to_dict(self) -> dict:
        return {
            "E": str(self.E),
            "p": [str(c) for c in self.p],
            "m": str(self.m),
            "signE": self.sign_e,
            "signP": self.sign_p,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NilpotentVector":
        return cls(
            Fraction(d["E"]),
            tuple(Fraction(c) for c in d["p"]),
            Fraction(d["m"]),
            int(d["signE"]),
            int(d["signP"]),
        )


def make_nilpotent(E, p, m, sign_e: int = 1, sign_p: int = 1) -> NilpotentVector:
    """Build a state vector; off-shell inputs are allowed (the square then
    reports the mass-shell defect instead of vanishing)."""
    px, py, pz = p
    return NilpotentVector(_frac(E), (_frac(px), _frac(py), _frac(pz)), _frac(m), sign_e, sign_p)


# ---------------------------------------------------------------------------
# CPT conjugations
# ---------------------------------------------------------------------------

_CPT_SANDWICH = {
    "P": (_QI, 1),   # i X i      flips p
    "T": (_QK, 1),   # k X k      flips E
    "C": (_QJ, -1),  # -j X j     flips both
}


def conjugate(x: NilpotentVector, op: str) -> NilpotentVector:
    """Apply P, T, C or any composition given as a string such as "TCP".

    Compositions apply right to left, so "TCP" means T(C(P(x))).  On sign
    patterns: P flips sign_p, T flips sign_e, C flips both; as multivectors
    these are the sandwich products i X i, k X k and -j X j.
    """
    out = x
    for letter in reversed(op.upper()):
        if letter not in _CPT_SANDWICH:
            raise ValueError(f"unknown conjugation {letter!r} in {op!r}")
        if letter == "P":
            out = out.flip_p()
        elif letter == "T":
            out = out.flip_e()
        else:
            out = out.flip_e().flip_p()
    return out


def conjugate_realized(x: NilpotentVector, op: str) -> Multivector:
    """The same conjugation computed as the literal sandwich product."""
    out = x.realized
    for letter in reversed(op.upper()):
        unit, sign = _CPT_SANDWICH[letter]
        out = unit * out * unit * sign
    return out


# ---------------------------------------------------------------------------
# spinors and pair sums
# ---------------------------------------------------------------------------

_FERMION_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_ANTIFERMION_SIGNS = ((-1, 1), (-1, -1), (1, 1), (1, -1))


class _SpinorFields(NamedTuple):
    E: Fraction
    p: tuple[Fraction, Fraction, Fraction]
    m: Fraction
    kind: str = "fermion"


class Spinor4(_SpinorFields):
    """The four sign variants of one state arranged as fermion or antifermion.

    Fermion order: (+E,+p), (+E,-p), (-E,+p), (-E,-p); the antifermion
    arrangement starts at (-E,+p).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in ("fermion", "antifermion"):
            raise ValueError("kind must be 'fermion' or 'antifermion'")
        return self

    @property
    def components(self) -> tuple[NilpotentVector, ...]:
        signs = _FERMION_SIGNS if self.kind == "fermion" else _ANTIFERMION_SIGNS
        return tuple(NilpotentVector(self.E, self.p, self.m, se, sp) for se, sp in signs)

    def to_dict(self) -> dict:
        return {
            "E": str(self.E),
            "p": [str(c) for c in self.p],
            "m": str(self.m),
            "kind": self.kind,
        }


def make_spinor(E, p, m, kind: str = "fermion") -> Spinor4:
    base = make_nilpotent(E, p, m)
    return Spinor4(base.E, base.p, base.m, kind)


PAIRING_KINDS = ("spin1", "spin0", "pauli", "vacuum-k", "vacuum-j", "vacuum-i")

_VACUUM_UNITS = {"vacuum-k": _QK, "vacuum-j": _QJ, "vacuum-i": _QI}


def spinor_pair_sum(a: Spinor4, b: Spinor4, pairing: str) -> Multivector:
    """Sum of the four componentwise products in the listed row/column order.

    spin1 pairs each component with its opposite-E partner (same p), spin0
    with the opposite-E opposite-p partner, pauli with itself; the vacuum
    pairings insert the named charge quaternion between the factors.
    """
    if pairing not in PAIRING_KINDS:
        raise ValueError(f"unknown pairing {pairing!r}")
    if (a.E, a.p, a.m) != (b.E, b.p, b.m):
        raise ValueError("paired spinors must share (E, p, m)")
    rows = a.components
    if pairing == "pauli":
        cols = rows
    elif pairing == "spin0":
        cols = tuple(c.flip_p() for c in b.components)
    else:
        cols = b.components
    total = Multivector()
    unit = _VACUUM_UNITS.get(pairing)
    for x, y in zip(rows, cols):
        term = x.realized * unit * y.realized if unit is not None else x.realized * y.realized
        total = total + term
    return total


def chain_product(factors) -> Multivector:
    """Left-to-right exact product of realized state vectors."""
    mvs = [f.realized if isinstance(f, NilpotentVector) else f for f in factors]
    if not mvs:
        raise ValueError("chain_product needs at least one factor")
    return reduce(lambda x, y: x * y, mvs)


# ---------------------------------------------------------------------------
# baryon phase products
# ---------------------------------------------------------------------------

# Each phase label maps to the slot pattern of its three factors: "B" is the
# momentum-free bracket (kE + ijm), "+"/"-" the bracket carrying +-p.  The
# middle slot anticommutes past the outer brackets, which is why the two
# lists below land on opposite momentum signs despite mixed labels.
BARYON_PHASES = {
    "BGR": ("B", "B", "+"),
    "-BRG": ("B", "-", "B"),
    "GRB": ("B", "+", "B"),
    "-GBR": ("B", "B", "-"),
    "RBG": ("+", "B", "B"),
    "-RGB": ("-", "B", "B"),
}

# phases whose triple product collapses onto the +p nilpotent
BARYON_PLUS_CLASS = frozenset({"BGR", "-BRG", "RBG"})


def baryon_product(phase: str, E, p, m) -> tuple[Fraction, NilpotentVector]:
    """Collapse one three-bracket phase onto (scalar factor, single state).

    The momentum must be on-shell and lie on a single axis; the factor has
    magnitude p^2 (sign +p^2 in the pinned units) and the surviving state
    carries +p for the phases BGR, -BRG, RBG and -p for GRB, -GBR, -RGB.
    """
    if phase not in BARYON_PHASES:
        raise ValueError(f"unknown baryon phase {phase!r}; expected one of {sorted(BARYON_PHASES)}")
    x = make_nilpotent(E, p, m)
    if not x.on_shell:
        raise ValueError("baryon_product requires an on-shell state (E^2 = p^2 + m^2)")
    if sum(1 for c in x.p if c) > 1:
        raise ValueError("baryon phase momentum must lie on a single axis")
    slots = {
        "B": NilpotentVector(x.E, (Fraction(0),) * 3, x.m),
        "+": x.with_signs(1, 1),
        "-": x.with_signs(1, -1),
    }
    product = chain_product([slots[s] for s in BARYON_PHASES[phase]])
    survivor = x.with_signs(1, 1 if phase in BARYON_PLUS_CLASS else -1)
    factor = x.p_squared
    if not (survivor.realized * factor == product):
        raise AssertionError("baryon product failed to collapse onto a single nilpotent")
    return factor, survivor


# ---------------------------------------------------------------------------
# vacuum reflections and chains
# ---------------------------------------------------------------------------

def vacuum_reflect(x: NilpotentVector, charge: str) -> NilpotentVector:
    """Sandwich by the named charge quaternion, up to overall state sign.

    k, j and i are the sandwiches of the conjugations T, C and P: k gives the
    antistate, j the spin-0-type image (flips E and p), i the parity image
    (flips p).  The j sandwich carries an overall -1 which is dropped: the
    state-vector sign is an arbitrary scalar factor.
    """
    if charge not in ("k", "j", "i"):
        raise ValueError(f"unknown vacuum charge {charge!r}; expected 'k', 'j' or 'i'")
    return conjugate(x, "TCP"["kji".index(charge)])


def vacuum_chain(x: NilpotentVector, n: int) -> tuple[Multivector, Multivector]:
    """The alternating chain X (kX)(kX)... with n reflections.

    Returns the final multivector and the per-step factor lam with
    X k X = lam X on shell: lam = -2iE*signE, a multivector on the i blade
    alone with |lam| = 2E, so the chain is lam^n X.
    """
    if n < 1:
        raise ValueError("need at least one reflection")
    lam = _I * (-2 * x.sign_e * x.E)
    xr = x.realized
    out = xr
    for _ in range(n):
        out = out * _QK * xr
    return out, lam


# ---------------------------------------------------------------------------
# electroweak vertex sums
# ---------------------------------------------------------------------------

VERTEX_KINDS = {
    # (row massive?, column massive?) for the four vertices
    "a": (True, False),
    "b": (True, True),
    "c": (False, True),
    "d": (False, False),
}


def _vertex_row(E, p, m) -> tuple[NilpotentVector, ...]:
    """Row listing starting at (+E,-p): (+,-), (+,+), (-,+), (-,-)."""
    base = make_nilpotent(E, p, m)
    return tuple(base.with_signs(se, sp) for se, sp in ((1, -1), (1, 1), (-1, 1), (-1, -1)))


def vertex_sum(vertex: str, E, p, m) -> Multivector:
    """Componentwise row-column sum for one electroweak vertex.

    The row starts at (+E,-p) and each column entry is the opposite-E,
    opposite-p partner of its row entry.  The mass m sits on the massive
    leg(s) of the chosen vertex; the massless legs drop their jm term.  For
    on-shell kinematics the sum is a pure scalar proportional to m^2
    (vertices a-c) and vanishes identically when every leg is massless.
    """
    if vertex not in VERTEX_KINDS:
        raise ValueError(f"unknown vertex {vertex!r}; expected one of 'abcd'")
    row_massive, col_massive = VERTEX_KINDS[vertex]
    row = _vertex_row(E, p, m if row_massive else 0)
    col = tuple(c.flip_e().flip_p() for c in _vertex_row(E, p, m if col_massive else 0))
    total = Multivector()
    for x, y in zip(row, col):
        total = total + x.realized * y.realized
    return total


def vertex_report(vertex: str, E, p, m) -> dict:
    """Raw vertex sum alongside its E^2-normalized scalar ratio.

    The normalization convention behind the quoted m^2/E^2 form is not
    pinned down, so both the unnormalized scalar and scalar/E^2 are exposed.
    """
    total = vertex_sum(vertex, E, p, m)
    scalar = total.scalar_part
    e = _frac(E)
    return {
        "vertex": vertex,
        "sum": total.to_dict(),
        "scalar": str(scalar),
        "scalar_over_E2": str(scalar / (e * e)) if e else None,
        "is_scalar": total.is_scalar,
    }


def product_report(mv: Multivector) -> dict:
    """JSON-friendly view of a product: scalar part plus full blade map."""
    return {"scalar": str(mv.scalar_part), "blades": mv.to_dict(), "is_zero": mv.is_zero}
