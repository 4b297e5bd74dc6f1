"""Exact arithmetic in the 64-element Dirac group and its 32-blade real algebra.

The algebra is generated by three commuting layers:

* a central complex unit ``i`` with i^2 = -1,
* one quaternion copy ``qi, qj, qk`` (the charge-side units),
* three multivariate vector units ``vi, vj, vk`` with vv = +1 and
  vi*vj = i*vk (cyclic), vi*vj = -vj*vi.

A basis blade is one product i^e * q * v, giving 2*4*4 = 32 blades, each an
int index 0..31 (bit 4 e, bits 2-3 q, bits 0-1 v); with both signs these form
a group of order 64.  Internally the vector units are the complexified second
quaternion copy (v = i*q2), so a single composition rule (two quaternion
tables plus the central i) yields every product.

The two groups of order 64 are plain ints 0..63 with bit 5 the sign (code 0
is the identity, ``NEG`` is -1):

* a Dirac-group code has the blade index in bits 0-4, the index the
  multivectors use; :func:`group_mul` reads the same product tables;
* a dualling code has bit n set for generator n of ``i1 j1 i2 j2 i3``;
  :func:`dual_mul` XORs the bits and fixes the sign by parity.

:func:`group_name` and :func:`dual_name` give the signed names (``-i.qk``,
``+i1j1``).

Multivectors are rational linear combinations of blades.  All arithmetic is
exact; there is no floating point anywhere in this module.  A multivector is
stored in lowest terms as int numerators over one int denominator, so sums,
products and matrix images run on ints alone.  The 4x4 matrix oracle checks
the product tables independently: its blade images are monomial, built from
the 2x2 quaternion images alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as _iproduct

__all__ = [
    "Multivector",
    "NEG",
    "blade_name",
    "parse_blade",
    "group_mul",
    "group_name",
    "generate_group",
    "group_center",
    "matrix_rep",
    "matrices_equal",
    "dual_element_image",
    "gamma_pentad",
    "dual_mul",
    "dual_name",
    "dual_generate",
    "dual_to_dirac_map",
    "element_order_census",
    "MV",
]

# ---------------------------------------------------------------------------
# blade composition
# ---------------------------------------------------------------------------

# quaternion unit table, indices 0..3 = (1, i, j, k): QUAT[a][b] = (sign, a*b)
QUAT = (
    ((1, 0), (1, 1), (1, 2), (1, 3)),
    ((1, 1), (-1, 0), (1, 3), (-1, 2)),
    ((1, 2), (-1, 3), (-1, 0), (1, 1)),
    ((1, 3), (1, 2), (-1, 1), (-1, 0)),
)

# i^n reduced to (sign, n mod 2)
_IPOW = ((1, 0), (1, 1), (-1, 0), (-1, 1))


def _blade_index(i_power: int, q1: int, vec: int) -> int:
    return (i_power << 4) | (q1 << 2) | vec


def _blade_parts(idx: int) -> tuple[int, int, int]:
    return (idx >> 4) & 1, (idx >> 2) & 3, idx & 3


def _compose(idx_a: int, idx_b: int) -> tuple[int, int]:
    """Product of two blades through the underlying C (x) H (x) H structure.

    Each vector unit carries a hidden central-i factor (v = i*q2), so the
    i-power bookkeeping below is what turns two quaternion tables into the
    mixed rules vv = +1 and vi*vj = i*vk.
    """
    ea, qa, va = _blade_parts(idx_a)
    eb, qb, vb = _blade_parts(idx_b)
    sq, q = QUAT[qa][qb]
    sv, v = QUAT[va][vb]
    ipow = ea + eb + (va != 0) + (vb != 0) - (v != 0)
    si, e = _IPOW[ipow % 4]
    return sq * sv * si, _blade_index(e, q, v)


MUL_SIGN = [[0] * 32 for _ in range(32)]
MUL_IDX = [[0] * 32 for _ in range(32)]
for _a, _b in _iproduct(range(32), range(32)):
    MUL_SIGN[_a][_b], MUL_IDX[_a][_b] = _compose(_a, _b)

_Q_NAMES = ("", "qi", "qj", "qk")
_V_NAMES = ("", "vi", "vj", "vk")


def blade_name(idx: int) -> str:
    """Dot-separated factor name, fixed order i, q, v (e.g. ``"i.qj.vk"``)."""
    e, q, v = _blade_parts(idx)
    parts = []
    if e:
        parts.append("i")
    if q:
        parts.append(_Q_NAMES[q])
    if v:
        parts.append(_V_NAMES[v])
    return ".".join(parts) if parts else "1"


def parse_blade(name: str) -> int:
    """Blade index of a name; inverse of :func:`blade_name`, factors in any order."""
    e, q, v = 0, 0, 0
    if name.strip() != "1":
        for part in name.strip().split("."):
            if not part:  # "" is the name of no quaternion and no vector factor
                raise ValueError(f"empty factor in blade name {name!r}")
            if part == "i":
                if e:
                    raise ValueError(f"repeated factor in blade name {name!r}")
                e = 1
            elif part in _Q_NAMES:
                if q:
                    raise ValueError(f"repeated factor in blade name {name!r}")
                q = _Q_NAMES.index(part)
            elif part in _V_NAMES:
                if v:
                    raise ValueError(f"repeated factor in blade name {name!r}")
                v = _V_NAMES.index(part)
            else:
                raise ValueError(f"unknown factor {part!r} in blade name {name!r}")
    return _blade_index(e, q, v)


NEG = 32  # the sign bit of a group code; NEG alone is -1


def group_mul(g: int, h: int) -> int:
    """Product of two Dirac-group codes (bit 5 the sign, bits 0-4 the blade)."""
    a, b = g & 31, h & 31
    # the tables are read at call time, so a patched MUL_SIGN is seen
    return MUL_IDX[a][b] | ((g ^ h) & NEG) ^ (NEG if MUL_SIGN[a][b] < 0 else 0)


def group_name(g: int) -> str:
    """Signed blade name of a Dirac-group code, e.g. ``"-i.qk"``."""
    return ("-" if g & NEG else "+") + blade_name(g & 31)


def generate_group(generators: "set[int] | None" = None) -> set[int]:
    """Closure of the generator codes under :func:`group_mul`.

    Default generators are -1, the central i, the quaternion units and the
    vector units; the closure then has exactly 64 elements.  In a finite
    group right multiplication by the generators alone reaches every element.
    """
    if generators is None:
        units = ("i", "qi", "qj", "qk", "vi", "vj", "vk")
        generators = {NEG, *map(parse_blade, units)}
    closure, frontier = {0}, {0}
    while frontier:
        frontier = {group_mul(x, g) for x in frontier for g in generators} - closure
        closure |= frontier
    return closure


def group_center(group: "set[int] | None" = None) -> set[int]:
    """Elements commuting with the whole group (brute-force scan)."""
    if group is None:
        group = generate_group()
    return {g for g in group if all(group_mul(g, h) == group_mul(h, g) for h in group)}


# ---------------------------------------------------------------------------
# multivectors
# ---------------------------------------------------------------------------


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator > 0) in lowest terms of an exact rational or its string."""
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, (int, Fraction)):
        return x.as_integer_ratio()
    raise TypeError(f"multivector coefficients must be exact rationals, got {type(x).__name__}")


def _reduced(d: int, n: "dict[int, int]") -> "Multivector":
    """The multivector with numerators ``n`` (nonzero) over ``d > 0``, in lowest terms."""
    g = math.gcd(d, *n.values())
    out = Multivector.__new__(Multivector)
    out._d, out._n = (d, n) if g == 1 else (d // g, {k: v // g for k, v in n.items()})
    return out


class Multivector:
    """Exact rational linear combination of the 32 basis blades, keyed by blade index.

    Stored in lowest terms: nonzero int numerators ``_n = {blade: numerator}``
    over one int ``_d > 0``, gcd(d, *n) = 1, so ``==`` and ``hash`` are exact.
    Fractions appear only in the constructor, the inspectors and the serializers.
    """

    __slots__ = ("_d", "_n")

    def __init__(self, coefficients=None):
        c = [(k, *_ratio(v)) for k, v in coefficients.items()] if coefficients else []
        # over the lcm of reduced denominators the numerators share no factor with it
        d = math.lcm(*[b for _, _, b in c])
        self._d, self._n = d, {k: a * (d // b) for k, a, b in c if a}

    # inspection ------------------------------------------------------------
    def coefficient(self, name: str) -> Fraction:
        return Fraction(self._n.get(parse_blade(name), 0), self._d)

    @property
    def scalar_part(self) -> Fraction:
        return Fraction(self._n.get(0, 0), self._d)

    def blades(self) -> dict[int, Fraction]:
        return {k: Fraction(v, self._d) for k, v in sorted(self._n.items())}

    @property
    def is_zero(self) -> bool:
        return not self._n

    @property
    def is_scalar(self) -> bool:
        return not self._n or self._n.keys() == {0}

    # arithmetic ------------------------------------------------------------
    def __add__(self, other: "Multivector") -> "Multivector":
        d = math.lcm(self._d, other._d)
        sa, sb = d // self._d, d // other._d
        n = {k: v * sa for k, v in self._n.items()}
        for k, v in other._n.items():
            n[k] = n.get(k, 0) + v * sb
        return _reduced(d, {k: v for k, v in n.items() if v})

    def __neg__(self) -> "Multivector":
        return _reduced(self._d, {k: -v for k, v in self._n.items()})

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            nb = other._n.items()
            acc: dict[int, int] = {}
            for ka, va in self._n.items():
                # the tables are read at call time, so a patched MUL_SIGN is seen
                srow, irow = MUL_SIGN[ka], MUL_IDX[ka]
                for kb, vb in nb:
                    k = irow[kb]
                    acc[k] = acc.get(k, 0) + srow[kb] * va * vb
            return _reduced(self._d * other._d, {k: n for k, n in acc.items() if n})
        a, b = _ratio(other)
        return _reduced(self._d * b, {k: v * a for k, v in self._n.items()} if a else {})

    def __rmul__(self, other):
        return self.__mul__(other)  # scalars commute

    def __eq__(self, other):
        return isinstance(other, Multivector) and self._d == other._d and self._n == other._n

    def __hash__(self):
        return hash((self._d, frozenset(self._n.items())))

    def __bool__(self):
        return bool(self._n)

    def __repr__(self):
        if not self._n:
            return "0"
        parts = []
        for idx, coef in self.blades().items():
            name = blade_name(idx)
            mag = abs(coef)
            term = name if (mag == 1 and name != "1") else (str(mag) if name == "1" else f"{mag}*{name}")
            parts.append(("- " if coef < 0 else "+ ") + term)
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    # serialization ----------------------------------------------------------
    def to_dict(self) -> dict[str, str]:
        return {blade_name(i): str(v) for i, v in self.blades().items()}

    @classmethod
    def from_dict(cls, d: dict) -> "Multivector":
        return cls({parse_blade(k): Fraction(v) for k, v in d.items()})


def MV(name: str, coef=1) -> Multivector:
    """One blade by name times a coefficient, e.g. ``MV("i.qk")`` or ``MV("i", -10)``."""
    return Multivector({parse_blade(name): coef})


# ---------------------------------------------------------------------------
# matrix oracle
# ---------------------------------------------------------------------------

# monomial 2x2 images of the quaternion units 1, i, j, k: row r has its one
# nonzero entry i^p in column c, stored as (c, p)
_Q2X2 = (
    ((0, 0), (1, 0)),  # [[1, 0], [0, 1]]
    ((0, 1), (1, 3)),  # [[i, 0], [0, -i]]
    ((1, 0), (0, 2)),  # [[0, 1], [-1, 0]]
    ((1, 1), (0, 1)),  # [[0, i], [i, 0]]
)

# 4x4 monomial blade images, one (column, i-power) per row: the Kronecker
# product of q1 (first tensor factor) and the hidden q2 (second factor), times
# i^e and, for a vector unit, its central-i factor (v = i*q2)
BLADE_IMAGES = tuple(
    tuple((2 * c1 + c2, (p1 + p2 + e + (v != 0)) % 4)
          for c1, p1 in _Q2X2[q] for c2, p2 in _Q2X2[v])
    for e, q, v in map(_blade_parts, range(32)))


class Mat4(tuple):
    """Exact 4x4 complex-rational matrix ``(den, re, im)`` in lowest terms.

    ``re`` and ``im`` are the 16 row-major integer numerators of the real and
    imaginary parts over the common denominator ``den > 0``, and
    gcd(den, re, im) = 1.  The form is canonical, so ``==`` is exact matrix
    equality; ``@`` is the exact product.
    """

    __slots__ = ()

    @classmethod
    def _reduced(cls, den: int, re, im) -> "Mat4":
        # lists, not generators, here and in Multivector: unpacking or tuple()
        # of a generator grows its buffer step by step, which raised peak memory
        g = math.gcd(den, *re, *im)
        if g == 1:
            return cls((den, tuple(re), tuple(im)))
        return cls((den // g, tuple([x // g for x in re]), tuple([x // g for x in im])))

    def __matmul__(self, other: "Mat4") -> "Mat4":
        da, are, aim = self
        db, bre, bim = other
        cols = [(bre[c::4], bim[c::4]) for c in range(4)]
        re, im = [], []
        for r in range(0, 16, 4):
            x0, x1, x2, x3 = are[r:r + 4]
            u0, u1, u2, u3 = aim[r:r + 4]
            for (y0, y1, y2, y3), (v0, v1, v2, v3) in cols:
                re.append(x0*y0 + x1*y1 + x2*y2 + x3*y3 - u0*v0 - u1*v1 - u2*v2 - u3*v3)
                im.append(x0*v0 + x1*v1 + x2*v2 + x3*v3 + u0*y0 + u1*y1 + u2*y2 + u3*y3)
        return Mat4._reduced(da * db, re, im)


# BLADE_IMAGES flattened for matrix_rep: per blade, one (row-major slot,
# imaginary?, sign) per row
_IMAGE_SLOTS = tuple(
    tuple((4 * r + c, p & 1, -1 if p & 2 else 1) for r, (c, p) in enumerate(image))
    for image in BLADE_IMAGES)


def matrix_rep(x: Multivector) -> Mat4:
    """4x4 matrix image with exact complex-rational entries.

    Ring homomorphism: matrix_rep(a*b) equals matrix_rep(a) @ matrix_rep(b)
    entrywise, with exact equality.
    """
    re, im = [0] * 16, [0] * 16
    for idx, n in x._n.items():
        for slot, imaginary, sign in _IMAGE_SLOTS[idx]:
            (im if imaginary else re)[slot] += sign * n
    return Mat4._reduced(x._d, re, im)


def matrices_equal(a: Mat4, b: Mat4) -> bool:
    return a == b


# ---------------------------------------------------------------------------
# gamma pentads
# ---------------------------------------------------------------------------


def gamma_pentad(tag: str = "mapping-2") -> tuple[Multivector, ...]:
    """The two unit mappings onto the gamma operators, as (g0, g1, g2, g3, g5).

    The five anticommute pairwise and square to (+1, -1, -1, -1, +1).

    mapping-2 (the pinned default): g0 = i*qk, g_a = qi*v_a, g5 = i*qj.
    mapping-1: g0 = -i*qi, g_a = qk*v_a, g5 = i*qj; left multiplication by qj
    carries mapping-1 onto mapping-2.
    """
    if tag == "mapping-2":
        return MV("i.qk"), MV("qi.vi"), MV("qi.vj"), MV("qi.vk"), MV("i.qj")
    if tag == "mapping-1":
        return MV("i.qi", -1), MV("qk.vi"), MV("qk.vj"), MV("qk.vk"), MV("i.qj")
    raise ValueError(f"unknown pentad tag {tag!r} (expected 'mapping-1' or 'mapping-2')")


# ---------------------------------------------------------------------------
# iterative dualling
# ---------------------------------------------------------------------------

DUAL_STEPS = (
    (2, "conjugation", None),
    (4, "complexification", "i1"),
    (8, "dimensionalization", "j1"),
    (16, "complexification", "i2"),
    (32, "dimensionalization", "j2"),
    (64, "complexification", "i3"),
)

_DUAL_GENS = ("i1", "j1", "i2", "j2", "i3")
# each generator squares to -1; these bit pairs, (i1, j1) and (j2, i3),
# anticommute and all others commute.  The pairing is what makes the order-64
# stage close onto the Dirac group: (i1, j1) span the charge quaternions, i2
# is the central i, and (j2, i3) span the hidden second quaternion copy
# behind the vector units.
_ANTI = ((0, 1), (3, 4))


def dual_mul(x: int, y: int) -> int:
    """Product of two dualling codes (bit 5 the sign, bit n generator n).

    Reordering the word x y into generator order moves each factor of y left
    past the higher factors of x: every shared generator squares to -1 and
    every anticommuting pair passed flips the sign once more.
    """
    flips = (x & y & 31).bit_count() + sum((y >> lo) & (x >> hi) & 1 for lo, hi in _ANTI)
    return x ^ y ^ (NEG if flips & 1 else 0)


def dual_name(x: int) -> str:
    """Signed generator word of a dualling code, e.g. ``"+i1j1"``."""
    word = "".join(g for n, g in enumerate(_DUAL_GENS) if x >> n & 1) or "1"
    return ("-" if x & NEG else "+") + word


def dual_generate(target_order: int) -> frozenset[int]:
    """Iterative dualling: the dualling codes of the stage of ``target_order``.

    Each step of ``DUAL_STEPS`` doubles the element count: conjugation, then
    alternating complexification and dimensionalization.  The order-8 stage
    is the quaternion group and the order-64 stage is isomorphic to the full
    Dirac group.
    """
    valid = [o for o, _, _ in DUAL_STEPS]
    if target_order not in valid:
        raise ValueError(f"target order must be one of {valid}, got {target_order}")
    elements = {0}
    for order, _, gen in DUAL_STEPS:
        g = NEG if gen is None else 1 << _DUAL_GENS.index(gen)
        elements |= {dual_mul(e, g) for e in elements}
        if order == target_order:
            return frozenset(elements)


def dual_to_dirac_map() -> dict[str, int]:
    """Candidate generator map onto the Dirac group, as group codes.

    i1, j1 -> charge quaternions qi, qj; i2 -> the central i; j2, i3 -> the
    hidden second quaternion copy (-i*vj, -i*vi) behind the vector units.
    """
    return {
        "i1": _blade_index(0, 1, 0),
        "j1": _blade_index(0, 2, 0),
        "i2": _blade_index(1, 0, 0),
        "j2": NEG | _blade_index(1, 0, 2),
        "i3": NEG | _blade_index(1, 0, 1),
    }


_DUAL_TO_DIRAC = dual_to_dirac_map()


def dual_element_image(x: int) -> int:
    """Group code of a dualling code: its sign times the mapped generators, in order."""
    out = x & NEG
    for n, g in enumerate(_DUAL_GENS):
        if x >> n & 1:
            out = group_mul(out, _DUAL_TO_DIRAC[g])
    return out


def element_order_census(elements, mul) -> dict[int, int]:
    """How many elements have each order under ``mul``; code 0 is the identity."""
    census: dict[int, int] = {}
    for e in elements:
        n, x = 1, e
        while x:
            x, n = mul(x, e), n + 1
        census[n] = census.get(n, 0) + 1
    return census
