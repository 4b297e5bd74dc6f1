"""Nilpotent states: mass shell, CPT, bosons, baryons, vacuum, vertices."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import on_shell_states, rationals
from nilpotent.algebra import MV, Multivector, gamma_pentad
from nilpotent.states import (
    BARYON_PHASES,
    BARYON_PLUS_CLASS,
    NilpotentVector,
    Spinor4,
    baryon_product,
    chain_product,
    conjugate,
    conjugate_realized,
    make_nilpotent,
    make_spinor,
    spinor_pair_sum,
    vacuum_chain,
    vacuum_reflect,
    vertex_report,
    vertex_sum,
)
from nilpotent.verify import random_on_shell

ONE = MV("1")
X_REF = make_nilpotent(5, (0, 0, 4), 3)


def _sum_of_unit_products(x: NilpotentVector) -> Multivector:
    """The state as 5 scalar products of the pentad units and qj, and 4 sums."""
    g0, g1, g2, g3, _ = gamma_pentad("mapping-2")
    out = g0 * (x.sign_e * x.E)
    for gamma, comp in zip((g1, g2, g3), x.p):
        out = out + gamma * (x.sign_p * comp)
    return out + MV("qj") * x.m


def test_realized_equals_the_sum_of_unit_products():
    rng = random.Random(2)

    def rational():
        return Fraction(rng.randint(-12, 12), rng.randint(1, 12))

    for _ in range(60):
        on = random_on_shell(rng)
        off = make_nilpotent(rational(), (rational(), rational(), rational()), rational())
        for x in (on, off, make_nilpotent(0, (0, 0, 0), 0)):
            for se, sp in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                y = x.with_signs(se, sp)
                assert y.realized == _sum_of_unit_products(y), y


def test_on_shell_square_is_zero():
    assert (X_REF.realized * X_REF.realized).is_zero


def test_off_shell_square_is_defect_times_scalar():
    x = make_nilpotent(2, (1, 0, 0), 0)
    assert x.realized * x.realized == ONE * 3


def test_pure_energy_square():
    x = make_nilpotent(1, (0, 0, 0), 0)
    assert x.realized * x.realized == ONE


@settings(max_examples=200)
@given(rationals, rationals, rationals, rationals, rationals)
def test_square_equals_mass_shell_defect(e, px, py, pz, m):
    x = make_nilpotent(e, (px, py, pz), m)
    assert x.realized * x.realized == ONE * x.mass_shell_defect


@settings(max_examples=200)
@given(on_shell_states())
def test_pauli_exclusion(x):
    assert (x.realized * x.realized).is_zero


def test_parity_flips_momentum_only():
    p = conjugate(X_REF, "P")
    assert (p.sign_e, p.sign_p) == (1, -1)


def test_time_reversal_flips_energy_only():
    t = conjugate(X_REF, "T")
    assert (t.sign_e, t.sign_p) == (-1, 1)


def test_charge_conjugation_flips_both():
    c = conjugate(X_REF, "C")
    assert (c.sign_e, c.sign_p) == (-1, -1)


@pytest.mark.parametrize("op", ["P", "T", "C"])
def test_sandwich_products_realize_conjugations(op):
    assert conjugate_realized(X_REF, op) == conjugate(X_REF, op).realized


def test_cpt_composition_table():
    assert conjugate(X_REF, "CP") == conjugate(X_REF, "T")
    assert conjugate(X_REF, "PT") == conjugate(X_REF, "C")
    assert conjugate(X_REF, "TC") == conjugate(X_REF, "P")


def test_tcp_is_identity():
    assert conjugate(X_REF, "TCP") == X_REF
    assert conjugate_realized(X_REF, "TCP") == X_REF.realized


@settings(max_examples=100)
@given(on_shell_states())
def test_cpt_involutions_and_compositions(x):
    for op in ("P", "T", "C"):
        assert conjugate(x, op + op) == x
        assert conjugate_realized(x, op) == conjugate(x, op).realized
    assert conjugate(x, "CP") == conjugate(x, "T")
    assert conjugate(x, "TCP") == x


def test_spinor_component_orders():
    f = make_spinor(5, (0, 0, 4), 3)
    assert [(c.sign_e, c.sign_p) for c in f.components] == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    a = make_spinor(5, (0, 0, 4), 3, "antifermion")
    assert [(c.sign_e, c.sign_p) for c in a.components] == [(-1, 1), (-1, -1), (1, 1), (1, -1)]


@pytest.mark.parametrize("call,message", [
    (lambda: conjugate(X_REF, "TXP"), "^unknown conjugation 'X' in 'TXP'$"),
    (lambda: vacuum_reflect(X_REF, "q"), "^unknown vacuum charge 'q'; expected 'k', 'j' or 'i'$"),
    (lambda: vertex_sum("e", 5, (0, 0, 4), 3), "^unknown vertex 'e'; expected one of 'abcd'$"),
    (lambda: chain_product([]), "^chain_product needs at least one factor$"),
], ids=["conjugation", "vacuum charge", "vertex", "empty chain"])
def test_unknown_names_and_empty_chains_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_signs_other_than_plus_or_minus_one_are_refused():
    for signs in ({"sign_e": 0}, {"sign_p": 2}):
        with pytest.raises(ValueError, match=r"^sign_e and sign_p must be \+/-1$"):
            NilpotentVector(X_REF.E, X_REF.p, X_REF.m, **signs)


def test_spinor_kind_other_than_fermion_or_antifermion_is_refused():
    with pytest.raises(ValueError, match="^kind must be 'fermion' or 'antifermion'$"):
        Spinor4(X_REF.E, X_REF.p, X_REF.m, kind="boson")


def test_state_is_the_tuple_of_its_fields():
    """Equal to and hashed as its fields; the repr names each field."""
    fields = (Fraction(5), (Fraction(0), Fraction(0), Fraction(4)), Fraction(3), 1, -1)
    x = X_REF.flip_p()
    assert x == fields and hash(x) == hash(fields)
    assert repr(x) == ("NilpotentVector(E=Fraction(5, 1), p=(Fraction(0, 1), Fraction(0, 1), "
                       "Fraction(4, 1)), m=Fraction(3, 1), sign_e=1, sign_p=-1)")
    assert x.realized is x.realized


def _pair(e, p, m):
    return make_spinor(e, p, m), make_spinor(e, p, m, "antifermion")


def test_goldstone_exclusion_componentwise():
    f, a = _pair(5, (3, 0, 4), 0)
    for r, c in zip(f.components, a.components):
        assert (r.realized * c.flip_p().realized).is_zero
    assert spinor_pair_sum(f, a, "spin0").is_zero


def test_massless_spin1_nonzero():
    f, a = _pair(5, (3, 0, 4), 0)
    total = spinor_pair_sum(f, a, "spin1")
    assert not total.is_zero
    assert total.scalar_part == -8 * 25
    pair = f.components[0].realized * a.components[0].realized
    assert pair.scalar_part == -2 * 25


def test_massive_spin0_nonzero():
    f, a = _pair(5, (0, 0, 4), 3)
    total = spinor_pair_sum(f, a, "spin0")
    assert total == ONE * (-8 * 9)


def test_pauli_pairing_vanishes():
    f, _ = _pair(5, (0, 0, 4), 3)
    assert spinor_pair_sum(f, f, "pauli").is_zero


def test_vacuum_pairing_reproduces_components():
    f, _ = _pair(5, (0, 0, 4), 3)
    total = spinor_pair_sum(f, f, "vacuum-k")
    expected = Multivector()
    for c in f.components:
        expected = expected + MV("i", -2 * c.sign_e * c.E) * c.realized
    assert total == expected


def test_pair_sum_requires_matching_kinematics():
    f = make_spinor(5, (0, 0, 4), 3)
    other = make_spinor(5, (0, 0, 4), 2, "antifermion")
    with pytest.raises(ValueError):
        spinor_pair_sum(f, other, "spin1")


def test_chain_product_pauli():
    assert chain_product([X_REF, X_REF]).is_zero


def test_glueball_chains():
    massless = [make_nilpotent(5, (3, 0, 4), 0, se, sp) for se, sp in
                ((1, 1), (-1, -1), (1, 1), (-1, -1))]
    assert chain_product(massless).is_zero  # spin-0 four-chain
    spin2 = [make_nilpotent(5, (3, 0, 4), 0, se, sp) for se, sp in
             ((1, 1), (-1, 1), (1, 1), (-1, 1))]
    assert not chain_product(spin2).is_zero


@pytest.mark.parametrize("phase", sorted(BARYON_PHASES))
def test_baryon_phase_products(phase):
    factor, survivor = baryon_product(phase, 5, (0, 0, 4), 3)
    assert factor == 16  # +p^2 in the pinned units
    assert survivor.sign_p == (1 if phase in BARYON_PLUS_CLASS else -1)
    # the collapse is exact: triple product equals factor times the survivor
    assert survivor.realized * factor == chain_product([
        make_nilpotent(5, (0, 0, 0) if s == "B" else (0, 0, 4), 3, 1,
                       -1 if s == "-" else 1)
        for s in BARYON_PHASES[phase]
    ])


def test_baryon_zero_momentum_degenerate():
    factor, _ = baryon_product("BGR", 3, (0, 0, 0), 3)
    assert factor == 0


def test_baryon_requires_on_shell():
    with pytest.raises(ValueError):
        baryon_product("BGR", 5, (0, 0, 1), 3)


def test_baryon_requires_single_axis():
    with pytest.raises(ValueError):
        baryon_product("BGR", 13, (3, 4, 12), 0)


@settings(max_examples=100)
@given(on_shell_states())
def test_baryon_scalar_magnitude_is_p_squared(x):
    axis = [abs(c) for c in x.p]
    single = tuple(c if i == axis.index(max(axis)) else 0 for i, c in enumerate(x.p))
    e2 = sum(c * c for c in single) + x.m * x.m
    # rebuild an on-shell single-axis state from the sampled one
    from math import isqrt
    num, den = e2.numerator, e2.denominator
    r_num, r_den = isqrt(num), isqrt(den)
    if r_num * r_num != num or r_den * r_den != den:
        return  # single-axis projection left the rational shell
    e = Fraction(r_num, r_den)
    for phase in BARYON_PHASES:
        factor, _ = baryon_product(phase, e, single, x.m)
        assert abs(factor) == sum(c * c for c in single)


def test_vacuum_reflect_k_is_antistate():
    assert vacuum_reflect(X_REF, "k") == conjugate(X_REF, "T")
    assert vacuum_reflect(vacuum_reflect(X_REF, "k"), "k") == X_REF


def test_vacuum_reflect_j_spin0_image():
    img = vacuum_reflect(X_REF, "j")
    assert (img.sign_e, img.sign_p) == (-1, -1)


def test_vacuum_reflect_i_parity_image():
    img = vacuum_reflect(X_REF, "i")
    assert (img.sign_e, img.sign_p) == (1, -1)


def test_vacuum_chain_single_step():
    mv, lam = vacuum_chain(X_REF, 1)
    assert lam == MV("i", -10)
    assert (lam.scalar_part, lam.coefficient("i")) == (0, -10)
    assert mv == lam * X_REF.realized
    assert mv == X_REF.realized * MV("qk") * X_REF.realized


def test_vacuum_chain_two_steps():
    mv, lam = vacuum_chain(X_REF, 2)
    assert lam * lam == ONE * -100
    assert mv == lam * lam * X_REF.realized


def test_vacuum_chain_degenerate():
    x = make_nilpotent(0, (0, 0, 0), 0)
    mv, lam = vacuum_chain(x, 1)
    assert mv.is_zero and lam.is_zero


def _literal_chain(x: NilpotentVector, n: int) -> Multivector:
    """X (kX)^n as 2n literal products: the reference for the recurrence."""
    out = x.realized
    for _ in range(n):
        out = out * MV("qk") * x.realized
    return out


# E = 0 and |2E| = 1, on and off shell
EDGE_STATES = (
    make_nilpotent(0, (0, 0, 0), 0),
    make_nilpotent(0, (Fraction(3, 2), 0, 0), 0),
    make_nilpotent(Fraction(1, 2), (0, 0, Fraction(1, 2)), 0),
    make_nilpotent(Fraction(-1, 2), (Fraction(3, 10), Fraction(2, 5), 0), 0),
    make_nilpotent(Fraction(1, 2), (1, 0, 0), Fraction(1, 3)),
)
ANY_STATE = st.one_of(
    on_shell_states(),
    st.builds(make_nilpotent, rationals, st.tuples(rationals, rationals, rationals), rationals),
    st.sampled_from(EDGE_STATES),
)


@settings(max_examples=300)
@given(ANY_STATE, st.sampled_from((1, -1)), st.sampled_from((1, -1)), st.integers(1, 5))
def test_vacuum_chain_is_the_literal_product(x, sign_e, sign_p, n):
    x = x.with_signs(sign_e, sign_p)
    mv, lam = vacuum_chain(x, n)
    assert mv == _literal_chain(x, n)
    assert lam == MV("i", -2 * sign_e * x.E)


@settings(max_examples=150)
@given(on_shell_states())
def test_vacuum_factor_pure_imaginary_2E(x):
    mv, lam = vacuum_chain(x, 1)
    assert lam in (MV("i", 2 * x.E), MV("i", -2 * x.E))
    assert mv == lam * x.realized


@pytest.mark.parametrize("vertex,const", [("a", -4), ("b", -8), ("c", -4)])
def test_vertex_scalar_constants(vertex, const):
    total = vertex_sum(vertex, 5, (0, 0, 4), 3)
    assert total == ONE * (const * 9)


def test_vertex_d_on_massive_kinematics():
    # both legs massless: the sum is -4(E^2 - p^2) as a pure scalar
    assert vertex_sum("d", 5, (0, 0, 4), 3) == ONE * (-4 * 9)


@pytest.mark.parametrize("vertex", list("abcd"))
def test_vertex_vanishes_when_massless(vertex):
    assert vertex_sum(vertex, 5, (3, 0, 4), 0).is_zero


def test_vertex_scales_quadratically_in_mass():
    small = vertex_sum("b", 5, (0, 0, 4), 3).scalar_part
    large = vertex_sum("b", 10, (0, 0, 8), 6).scalar_part
    assert large == 4 * small


def test_vertex_report_exposes_both_normalizations():
    rep = vertex_report("b", 5, (0, 0, 4), 3)
    assert rep["scalar"] == "-72"
    assert Fraction(rep["scalar_over_E2"]) == Fraction(-72, 25)
    assert rep["is_scalar"]


def test_nilpotent_json_roundtrip():
    d = X_REF.to_dict()
    assert d == {"E": "5", "p": ["0", "0", "4"], "m": "3", "signE": 1, "signP": 1}
    assert NilpotentVector.from_dict(d) == X_REF
