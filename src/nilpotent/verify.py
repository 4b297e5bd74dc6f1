"""Identity suite over the group algebra and the nilpotent state machinery.

Each check is a named boolean; the CLI's verify subcommand runs the whole
list and fails (exit code 2) if any identity breaks.  The random sweeps are
seeded and exact, so the suite is deterministic for a given seed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from . import _echo, states
from .algebra import (
    MV,
    NEG,
    Multivector,
    _reduced,
    dual_element_image,
    dual_generate,
    dual_homomorphism_witness,
    dual_mul,
    element_order_census,
    gamma_pentad,
    generate_group,
    group_center,
    group_mul,
    group_name,
    image_product,
    matrices_equal,
    matrix_rep,
    parse_blade,
)
from .states import (
    BARYON_PHASES,
    baryon_product,
    chain_product,
    conjugate,
    conjugate_realized,
    make_nilpotent,
    make_spinor,
    spinor_pair_sum,
    vacuum_chain,
    vertex_sum,
)

__all__ = ["Check", "run_identity_suite", "ON_SHELL_QUADRUPLES", "random_on_shell"]

# (px, py, pz, E) integer quadruples with E^2 = p^2 (mass adds via scaling pairs)
ON_SHELL_QUADRUPLES = (
    (0, 0, 4, 3, 5),
    (3, 4, 12, 0, 13),
    (1, 2, 2, 0, 3),
    (2, 3, 6, 0, 7),
    (1, 4, 8, 0, 9),
    (2, 6, 9, 0, 11),
    (6, 6, 7, 0, 11),
    (0, 0, 0, 5, 5),
)

# The sweeps draw every int as rng.choice over these ranges would: in CPython
# 3.10-3.13 choice(seq) is seq[_randbelow(len(seq))], randint and shuffle
# draw through _randbelow too, and Random._randbelow_with_getrandbits(n)
# draws n.bit_length() bits until the draw is below n.  _pick makes those
# getrandbits calls itself, so the samples and the generator state are those
# of randint, with one Python call per int instead of three.
_SCALES = range(1, 13)
_BLADE_COUNTS = range(1, 7)


def _pick(bits, seq):
    """rng.choice(seq), drawn with ``bits = rng.getrandbits``."""
    n = len(seq)
    while (r := bits(n.bit_length())) >= n:
        pass
    return seq[r]


def random_on_shell(rng: random.Random) -> states.NilpotentVector:
    """Random exact on-shell state: scaled, axis-permuted, sign-flipped quadruple."""
    bits = rng.getrandbits
    px, py, pz, m, e = _pick(bits, ON_SHELL_QUADRUPLES)
    a, b = _pick(bits, _SCALES), _pick(bits, _SCALES)  # the scale a/b
    comps = [px * a, py * a, pz * a]
    for n in (2, 1):  # rng.shuffle(comps)
        k = _pick(bits, range(n + 1))
        comps[n], comps[k] = comps[k], comps[n]
    comps = [Fraction(c if rng.random() < 0.5 else -c, b) for c in comps]
    return make_nilpotent(Fraction(e * a, b), tuple(comps), Fraction(m * a, b),
                          _pick(bits, (1, -1)), _pick(bits, (1, -1)))


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def run_identity_suite(oracle_pairs: int = 1000, state_samples: int = 1000,
                       seed: int = 0) -> list[Check]:
    """All algebra and state identities as a flat list of named checks.

    A negative ``oracle_pairs`` or ``state_samples`` raises ValueError.
    """
    for name, count in (("oracle_pairs", oracle_pairs), ("state_samples", state_samples)):
        if count < 0:
            raise ValueError(f"{name} must be nonnegative, got {_echo(count)}")
    rng = random.Random(seed)
    checks: list[Check] = []

    def check(name: str, passed: bool, detail: str = ""):
        checks.append(Check(name, bool(passed), detail))

    group = generate_group()
    check("group order 64", len(group) == 64, f"got {len(group)}")
    quat = generate_group({NEG, *map(parse_blade, ("qi", "qj", "qk"))})
    check("quaternion subgroup order 8", len(quat) == 8)
    center = group_center(group)
    expected_center = {s | e for s in (0, NEG) for e in (0, parse_blade("i"))}
    check("center is {+-1, +-i}", center == expected_center,
          f"missing {_names(expected_center - center)}, extra {_names(center - expected_center)}")

    one, i = MV("1"), MV("i")
    qi, qj, qk = MV("qi"), MV("qj"), MV("qk")
    vi, vj, vk = MV("vi"), MV("vj"), MV("vk")
    check("i^2 = -1 (central)", i * i == -one)
    for name, unit in (("qi", qi), ("qj", qj), ("qk", qk)):
        check(f"{name}^2 = -1", unit * unit == -one)
    check("qi qj qk = -1", qi * qj * qk == -one)
    check("qi qj = qk", qi * qj == qk)
    check("qj qk = qi", qj * qk == qi)
    check("qk qi = qj", qk * qi == qj)
    for name, unit in (("vi", vi), ("vj", vj), ("vk", vk)):
        check(f"{name}^2 = +1", unit * unit == one)
    check("vi vj = i vk", vi * vj == i * vk)
    check("vj vk = i vi", vj * vk == i * vi)
    check("vk vi = i vj", vk * vi == i * vj)
    check("vi vj = -vj vi", vi * vj == -(vj * vi))
    for qn, qu in (("qi", qi), ("qj", qj), ("qk", qk)):
        for vn, vu in (("vi", vi), ("vj", vj), ("vk", vk)):
            check(f"{qn} {vn} commute", qu * vu == vu * qu)

    for tag in ("mapping-1", "mapping-2"):
        gammas = gamma_pentad(tag)
        squares = (one, -one, -one, -one, one)
        for k, (g, sq) in enumerate(zip(gammas, squares)):
            check(f"{tag} gamma{'5' if k == 4 else k} square", g * g == sq)
        for ai in range(5):
            for bi in range(ai + 1, 5):
                check(
                    f"{tag} gamma{ai}|{bi} anticommute",
                    (gammas[ai] * gammas[bi] + gammas[bi] * gammas[ai]).is_zero,
                )
        lhs = matrix_rep(gammas[0] * gammas[1])
        rhs = image_product(gammas[0], gammas[1])
        check(f"{tag} oracle spot product", matrices_equal(lhs, rhs))

    witness = ""
    for n in range(oracle_pairs):
        a = _random_multivector(rng)
        b = _random_multivector(rng)
        if not matrices_equal(matrix_rep(a * b), image_product(a, b)):
            witness = f"pair {n} under seed {seed}: a = {a!r}, b = {b!r}"
            break
    check(f"matrix oracle on {oracle_pairs} random pairs", not witness, witness)

    for order in (2, 4, 8, 16, 32, 64):
        check(f"dual order {order} count", len(dual_generate(order)) == order)
    check("dual order 8 is the quaternion group",
          element_order_census(dual_generate(8), dual_mul) == {1: 1, 2: 1, 4: 6})
    d64 = dual_generate(64)
    images = {dual_element_image(x) for x in d64}
    check("dual order 64 image bijective", len(images) == 64 and images == group)
    check("dual order 64 census matches",
          element_order_census(d64, dual_mul) == element_order_census(group, group_mul))
    witness = dual_homomorphism_witness(d64)
    check("dual order 64 generator map is a homomorphism", not witness, witness)

    # nilpotent machinery -------------------------------------------------
    sample_ok = {"square": True, "pauli": True, "vacuum": True}
    two_i = i * 2
    for _ in range(state_samples):
        x = random_on_shell(rng)
        xr = x.realized
        square = xr * xr
        # the scalar part of the square and the defect, two computations, must both be 0
        if square.scalar_part or x.mass_shell_defect:
            sample_ok["square"] = False
        if not square.is_zero:
            sample_ok["pauli"] = False
        # the chain comes from a recurrence, so it is checked against the literal product
        mv, lam = vacuum_chain(x, 1)
        two_e = two_i * x.E  # no Fraction arithmetic: the multivector scales by E
        if mv != xr * qk * xr or mv != lam * xr or lam not in (two_e, -two_e):
            sample_ok["vacuum"] = False
    check(f"on-shell square zero ({state_samples} samples)", sample_ok["square"])
    check("Pauli exclusion on samples", sample_ok["pauli"])
    check("vacuum factor |lam| = 2E on samples", sample_ok["vacuum"])

    x = make_nilpotent(5, (0, 0, 4), 3)
    for op in ("P", "T", "C"):
        check(f"{op} sandwich matches sign flip",
              conjugate_realized(x, op) == conjugate(x, op).realized)
    check("CP = T", conjugate(x, "CP") == conjugate(x, "T"))
    check("PT = C", conjugate(x, "PT") == conjugate(x, "C"))
    check("TC = P", conjugate(x, "TC") == conjugate(x, "P"))
    check("TCP = identity", conjugate_realized(x, "TCP") == x.realized)

    fm = make_spinor(5, (3, 0, 4), 0)
    am = make_spinor(5, (3, 0, 4), 0, "antifermion")
    goldstone = all(
        (r.realized * c.flip_p().realized).is_zero
        for r, c in zip(fm.components, am.components)
    )
    check("massless spin-0 products vanish", goldstone)
    check("massless spin-1 sum nonzero", not spinor_pair_sum(fm, am, "spin1").is_zero)

    witness = ""
    for phase in BARYON_PHASES:
        # a broken state map or mass shell raises here; it fails this check
        try:
            factor, _ = baryon_product(phase, 5, (0, 0, 4), 3)
        except (AssertionError, ValueError) as exc:
            witness = f"{phase}: {exc}"
            break
        if abs(factor) != 16:
            witness = f"{phase}: factor {factor}"
            break
    check("six baryon phases collapse with |factor| = p^2", not witness, witness)

    vertex_ok = all(not vertex_sum(v, 5, (0, 0, 4), 3).is_zero for v in "abc")
    vertex_zero = all(vertex_sum(v, 5, (3, 0, 4), 0).is_zero for v in "abcd")
    check("massive vertex sums nonzero", vertex_ok)
    check("massless vertex sums vanish", vertex_zero)
    spin0_glueball = chain_product([
        make_nilpotent(5, (3, 0, 4), 0, 1, 1),
        make_nilpotent(5, (3, 0, 4), 0, -1, -1),
        make_nilpotent(5, (3, 0, 4), 0, 1, 1),
        make_nilpotent(5, (3, 0, 4), 0, -1, -1),
    ])
    spin2_glueball = chain_product([
        make_nilpotent(5, (3, 0, 4), 0, 1, 1),
        make_nilpotent(5, (3, 0, 4), 0, -1, 1),
        make_nilpotent(5, (3, 0, 4), 0, 1, 1),
        make_nilpotent(5, (3, 0, 4), 0, -1, 1),
    ])
    check("massless spin-0 four-chain vanishes", spin0_glueball.is_zero)
    check("massless spin-2 four-chain survives", not spin2_glueball.is_zero)

    return checks


def _names(codes) -> str:
    return "{" + ", ".join(sorted(map(group_name, codes))) + "}"


def _random_multivector(rng: random.Random) -> Multivector:
    """1 to 6 blades with coefficients a/b, |a| <= 9, 1 <= b <= 9; a later
    draw of a blade replaces the earlier one."""
    bits = rng.getrandbits
    drawn = {}
    for _ in range(_pick(bits, _BLADE_COUNTS)):
        # _pick inlined, as this loop makes most of the draws: the numerator
        # from range(-9, 10), the denominator from range(1, 10), then the
        # blade from range(32)
        while (a := bits(5)) >= 19:
            pass
        while (b := bits(4)) >= 9:
            pass
        while (k := bits(6)) >= 32:
            pass
        drawn[k] = a - 9, b + 1
    d = math.lcm(*[b for _, b in drawn.values()])
    return _reduced(d, {k: a * (d // b) for k, (a, b) in drawn.items() if a})
