"""Group algebra: blades, multivectors, oracle, pentads, dualling."""

import math
import random
import re
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from nilpotent import algebra
from nilpotent.algebra import (
    MV,
    NEG,
    Multivector,
    blade_name,
    dual_element_image,
    dual_generate,
    dual_mul,
    dual_name,
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
from nilpotent.verify import run_identity_suite

ONE = MV("1")

# mixed denominators; an empty dict is the zero multivector
coefficients = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 30))
coefficient_maps = st.dictionaries(st.integers(0, 31), coefficients, max_size=8)
multivectors = coefficient_maps.map(Multivector)


def _reference_product(a: Multivector, b: Multivector) -> Multivector:
    """Blade-by-blade Fraction product: the definition the integer kernel must equal."""
    out = {}
    for ba, va in a.blades().items():
        for bb, vb in b.blades().items():
            k = algebra.MUL_IDX[ba][bb]
            out[k] = out.get(k, Fraction(0)) + algebra.MUL_SIGN[ba][bb] * va * vb
    return Multivector(out)


def code(name: str) -> int:
    """Dirac-group code of a signed blade name such as ``"-i.qk"``."""
    return (NEG if name.startswith("-") else 0) | parse_blade(name.lstrip("+-"))


def test_exactly_32_blades():
    names = {blade_name(i) for i in range(32)}
    assert len(names) == 32
    assert {"1", "i", "qi", "qj", "qk", "vi", "vj", "vk", "i.qj.vk"} <= names


def test_blade_roundtrip_names():
    for idx in range(32):
        assert parse_blade(blade_name(idx)) == idx
    assert parse_blade("vk.qj.i") == parse_blade("i.qj.vk") == 0b11011


@pytest.mark.parametrize("name", ["", " ", ".vj", "qi.", "qi..vj", "i..", "."])
def test_parse_blade_refuses_an_empty_factor(name):
    # "" is the quaternion and vector name of the unit, never a factor
    with pytest.raises(ValueError, match="empty factor"):
        parse_blade(name)


@pytest.mark.parametrize("name", ["i.i", "qi.qj", "vi.vk", "vj.i.vj"])
def test_parse_blade_refuses_a_repeated_factor(name):
    with pytest.raises(ValueError, match=f"^repeated factor in blade name '{name}'$"):
        parse_blade(name)


def test_group_codes_and_names():
    assert [group_name(g) for g in (0, NEG, 16, NEG | 28)] == ["+1", "-1", "+i", "-i.qk"]
    assert all(code(group_name(g)) == g for g in range(64))
    assert [dual_name(x) for x in (0, NEG, 0b11, NEG | 0b10100)] == ["+1", "-1", "+i1j1", "-i2i3"]


def test_quaternion_product_qi_qj():
    assert group_name(group_mul(code("qi"), code("qj"))) == "+qk"


def test_vector_product_vi_vj_is_i_vk():
    product = group_mul(code("vi"), code("vj"))
    assert product == code("i.vk") and blade_name(product) == "i.vk"


def test_identity_blade():
    for g in range(64):
        assert group_mul(0, g) == g == group_mul(g, 0)


def test_group_mul_signs():
    for g in range(64):
        for h in range(64):
            assert group_mul(g, h) == group_mul(g & 31, h & 31) ^ (g & NEG) ^ (h & NEG)
    assert group_mul(NEG, NEG) == 0


def test_group_mul_associative():
    rng = random.Random(1)
    for _ in range(300):
        a, b, c = (rng.randrange(64) for _ in range(3))
        assert group_mul(group_mul(a, b), c) == group_mul(a, group_mul(b, c))


def test_quaternion_relations_both_copies():
    for i, j, k in (("qi", "qj", "qk"), ):
        assert MV(i) * MV(i) == -ONE
        assert MV(j) * MV(j) == -ONE
        assert MV(k) * MV(k) == -ONE
        assert MV(i) * MV(j) * MV(k) == -ONE
    # vector units square +1 with the cyclic i-weighted products
    assert MV("vi") * MV("vi") == ONE
    assert MV("vi") * MV("vj") == MV("i.vk")
    assert MV("vj") * MV("vk") == MV("i.vi")
    assert MV("vk") * MV("vi") == MV("i.vj")
    assert MV("vi") * MV("vj") == -(MV("vj") * MV("vi"))


def test_copies_commute_elementwise():
    for q in ("qi", "qj", "qk"):
        for v in ("vi", "vj", "vk"):
            assert MV(q) * MV(v) == MV(v) * MV(q)


def test_gamma0_squares_plus_one():
    g0 = MV("i.qk")
    assert g0 * g0 == ONE


def test_pentad_anticommutation_mv_example():
    g0, g1 = MV("i.qk"), MV("qi.vi")
    assert (g0 * g1 + g1 * g0).is_zero


def test_scalar_multiplication():
    a = MV("qi", Fraction(3, 4)) + MV("i.vj", Fraction(-2, 5))
    scaled = a * Fraction(2, 3)
    assert scaled.coefficient("qi") == Fraction(1, 2)
    assert scaled.coefficient("i.vj") == Fraction(-4, 15)
    assert Fraction(2, 3) * a == scaled


def test_multivector_distributes():
    rng = random.Random(7)

    def rand_mv():
        return Multivector({rng.randrange(32): Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                            for _ in range(4)})

    for _ in range(50):
        a, b, c = rand_mv(), rand_mv(), rand_mv()
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_group_order_64():
    assert len(generate_group()) == 64


def test_quaternion_subgroup_order_8():
    gens = {code("-1"), code("qi"), code("qj"), code("qk")}
    assert len(generate_group(gens)) == 8


def test_center_is_plus_minus_one_and_i():
    assert group_center() == {code("1"), code("-1"), code("i"), code("-i")}


def test_group_closure():
    group = generate_group()
    for a in group:
        for b in group:
            assert group_mul(a, b) in group


@settings(max_examples=150)
@given(multivectors, multivectors)
def test_integer_product_equals_fraction_reference(a, b):
    assert a * b == _reference_product(a, b)


@settings(max_examples=100)
@given(st.sampled_from([k for k in range(32) if algebra.MUL_IDX[k][k] == 0
                        and algebra.MUL_SIGN[k][k] == 1]),
       coefficients.filter(bool), coefficients)
def test_integer_product_cancels_to_exact_zero(k, c, d):
    """(1 + b)(1 - b) = 1 - b^2 vanishes for every blade b squaring to +1."""
    b = Multivector({k: 1})
    a, z = (ONE + b) * c, (ONE - b) * d
    assert (a * z).is_zero and _reference_product(a, z).is_zero
    assert (a * Multivector()).is_zero and (Multivector() * a).is_zero


def _ref_add(x: dict, y: dict) -> dict:
    """Sum of two {blade: Fraction} maps, zero coefficients dropped."""
    out = {k: x.get(k, 0) + y.get(k, 0) for k in x.keys() | y.keys()}
    return {k: v for k, v in out.items() if v}


def _ref_scale(x: dict, s: Fraction) -> dict:
    return {k: v * s for k, v in x.items() if v * s}


def _in_lowest_terms(x: Multivector) -> bool:
    return x._d > 0 and all(x._n.values()) and math.gcd(x._d, *x._n.values()) == 1


@settings(max_examples=150)
@given(coefficient_maps, coefficient_maps, coefficients)
def test_linear_operations_equal_fraction_reference(ca, cb, s):
    """+, binary -, unary -, scalar * and == on the integer form against plain
    {blade: Fraction} maps, and hash agreeing with ==."""
    a, b = Multivector(ca), Multivector(cb)
    ra, rb = _ref_add(ca, {}), _ref_add(cb, {})
    cases = [
        (a, ra),
        (a + b, _ref_add(ra, rb)),
        (a - b, _ref_add(ra, _ref_scale(rb, Fraction(-1)))),
        (-a, _ref_scale(ra, Fraction(-1))),
        (a * s, _ref_scale(ra, s)),
        (s * a, _ref_scale(ra, s)),
        (a * int(s.numerator), _ref_scale(ra, Fraction(s.numerator))),
    ]
    for got, ref in cases:
        assert got.blades() == dict(sorted(ref.items()))
        assert _in_lowest_terms(got) and got.is_zero == (not ref)
    assert (a == b) == (ra == rb)
    # the same value reached two ways is one value
    for x, y in (((a + b) * s, a * s + b * s), (a + b - b, a), (a - a, Multivector())):
        assert x == y and hash(x) == hash(y) and repr(x) == repr(y)


def test_equal_values_built_different_ways_are_one_value():
    half, third = Fraction(1, 2), Fraction(1, 3)
    pairs = [
        (MV("qi", Fraction(2, 4)) * 3, MV("qi", Fraction(3, 2))),
        (MV("qi", half) + MV("qi", half), MV("qi")),
        (MV("qi", half) * MV("qi", 2), -ONE),
        (MV("i", Fraction(1, 6)) + MV("vj", third) - MV("vj", third), MV("i", "1/6")),
        ((MV("qi", third) + MV("qj", Fraction(2, 5))) - (MV("qj", Fraction(2, 5)) + MV("qi", third)),
         Multivector()),
        (MV("vk", Fraction(7, 3)) * 0, Multivector({5: 0})),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y), (x, y)
        assert x.blades() == y.blades() and repr(x) == repr(y) and _in_lowest_terms(x)
    assert len({v for pair in pairs for v in pair}) == 5  # 3/2 qi, qi, -1, i/6 and 0
    assert MV("qi", half) != MV("qi", Fraction(1, 4)) and MV("qi") != MV("qj")


def _complex_entries(m) -> list[tuple[Fraction, Fraction]]:
    den, re, im = m
    return [(Fraction(x, den), Fraction(y, den)) for x, y in zip(re, im)]


def _naive_matmul(a, b) -> list[tuple[Fraction, Fraction]]:
    """Row-major 4x4 product of (re, im) Fraction entries, term by term."""
    out = []
    for r in range(4):
        for c in range(4):
            re = im = Fraction(0)
            for k in range(4):
                (x, u), (y, v) = a[4 * r + k], b[4 * k + c]
                re, im = re + x * y - u * v, im + x * v + u * y
            out.append((re, im))
    return out


def _naive_image_product(a, b) -> list[tuple[Fraction, Fraction]]:
    return _naive_matmul(_complex_entries(matrix_rep(a)), _complex_entries(matrix_rep(b)))


@settings(max_examples=100)
@given(multivectors, multivectors)
def test_mat4_product_equals_a_naive_complex_product(a, b):
    """The product of two matrix images, summed over blade-image pairs, is the
    term-by-term product of their complex entries, in lowest terms."""
    product = image_product(a, b)
    assert _complex_entries(product) == _naive_image_product(a, b)
    den, re, im = product
    assert den > 0 and math.gcd(den, *re, *im) == 1


def test_image_product_equals_a_naive_complex_product_on_every_basis_pair():
    blades = [Multivector({k: 1}) for k in range(32)]
    for a in blades:
        for b in blades:
            assert _complex_entries(image_product(a, b)) == _naive_image_product(a, b), (a, b)


def test_matrix_rep_identity():
    """The exact identity in lowest terms: denominator 1, real part I, imaginary part 0."""
    identity = (1, tuple(int(r == c) for r in range(4) for c in range(4)), (0,) * 16)
    assert matrix_rep(ONE) == identity
    assert matrix_rep(Multivector()) == (1, (0,) * 16, (0,) * 16)


def test_matrix_rep_canonical_form():
    assert matrix_rep(MV("qi", Fraction(2, 4)) * 3) == matrix_rep(MV("qi", Fraction(3, 2)))
    # the product's denominator 2 cancels against the numerators
    assert image_product(MV("qi", Fraction(1, 2)), MV("qi", 2)) == matrix_rep(-ONE)
    images = [matrix_rep(Multivector({k: 1})) for k in range(32)]
    assert len(set(images)) == 32


@settings(max_examples=100)
@given(multivectors, multivectors)
def test_matrix_rep_products_stay_in_lowest_terms(a, b):
    product = image_product(a, b)
    assert product == matrix_rep(a * b)
    den, re, im = product
    assert den > 0 and math.gcd(den, *re, *im) == 1


def test_matrix_rep_quaternion_image():
    lhs = image_product(MV("qi"), MV("qj"))
    assert matrices_equal(lhs, matrix_rep(MV("qk")))


@pytest.mark.parametrize("tag", ["mapping-1", "mapping-2"])
def test_pentad_invariants(tag):
    gammas = gamma_pentad(tag)
    assert len(gammas) == 5
    squares = [ONE, -ONE, -ONE, -ONE, ONE]
    for g, sq in zip(gammas, squares):
        assert g * g == sq
    for a in range(5):
        for b in range(a + 1, 5):
            assert (gammas[a] * gammas[b] + gammas[b] * gammas[a]).is_zero


@pytest.mark.parametrize("tag", ["mapping-1", "mapping-2"])
def test_pentad_clifford_check_in_oracle(tag):
    gammas = gamma_pentad(tag)[:4]
    metric = [1, -1, -1, -1]
    for a in range(4):
        for b in range(a, 4):
            anti = matrix_rep(gammas[a] * gammas[b] + gammas[b] * gammas[a])
            expected = matrix_rep(ONE * (2 * metric[a] if a == b else 0))
            assert matrices_equal(anti, expected)


def test_pentad_mapping_2_values():
    assert gamma_pentad("mapping-2") == (MV("i.qk"), MV("qi.vi"), MV("qi.vj"), MV("qi.vk"),
                                         MV("i.qj"))
    assert gamma_pentad() == gamma_pentad("mapping-2")


def test_mapping_1_carried_onto_mapping_2_by_qj():
    p1, p2 = gamma_pentad("mapping-1"), gamma_pentad("mapping-2")
    qj = MV("qj")
    for g1, g2 in zip(p1[:4], p2[:4]):
        assert qj * g1 == g2


def test_unknown_pentad_tag():
    with pytest.raises(ValueError):
        gamma_pentad("mapping-3")


def _basis_pairs_off_the_oracle() -> list[tuple[str, str]]:
    """Every basis pair (a, b) whose table product e_a e_b the matrix oracle refutes."""
    blades = [Multivector({k: 1}) for k in range(32)]
    return [(blade_name(a), blade_name(b)) for a in range(32) for b in range(32)
            if matrix_rep(blades[a] * blades[b]) != image_product(blades[a], blades[b])]


def test_oracle_proves_the_whole_product_table():
    """The product is bilinear and matrix_rep linear, so agreement on all 32 x 32
    basis pairs proves the table for every pair of multivectors."""
    assert _basis_pairs_off_the_oracle() == []


@pytest.mark.parametrize("a,b", [(0, 0), (28, 5), (27, 18), (31, 31), (9, 22)])
def test_exhaustive_oracle_catches_one_flipped_sign(a, b, monkeypatch):
    flipped = [row[:] for row in algebra.MUL_SIGN]
    flipped[a][b] = -flipped[a][b]
    monkeypatch.setattr(algebra, "MUL_SIGN", flipped)
    assert _basis_pairs_off_the_oracle() == [(blade_name(a), blade_name(b))]


def _refuted(blades, products, a, b) -> bool:
    """Whether the matrix oracle refutes the table product e_a e_b."""
    return matrix_rep(blades[a] * blades[b]) != products[a][b]


def test_exhaustive_oracle_refutes_every_sign_flip_and_index_swap(monkeypatch):
    """Mutation analysis of the product table: each of the 1024 MUL_SIGN flips,
    and a seeded sample of MUL_IDX swaps within a row, is refuted by the
    basis-pair proof at every pair it touched."""
    blades = [Multivector({k: 1}) for k in range(32)]
    # from BLADE_IMAGES alone
    products = [[image_product(blades[a], blades[b]) for b in range(32)] for a in range(32)]
    signs = [row[:] for row in algebra.MUL_SIGN]
    indices = [row[:] for row in algebra.MUL_IDX]
    monkeypatch.setattr(algebra, "MUL_SIGN", signs)
    monkeypatch.setattr(algebra, "MUL_IDX", indices)

    survivors = []
    for a in range(32):
        for b in range(32):
            signs[a][b] = -signs[a][b]
            if not _refuted(blades, products, a, b):
                survivors.append(("sign", a, b))
            signs[a][b] = -signs[a][b]
    rng = random.Random(0)
    for _ in range(200):
        a, (b, c) = rng.randrange(32), rng.sample(range(32), 2)
        row = indices[a]
        row[b], row[c] = row[c], row[b]
        if not (_refuted(blades, products, a, b) and _refuted(blades, products, a, c)):
            survivors.append(("index", a, b, c))
        row[b], row[c] = row[c], row[b]
    assert survivors == []
    assert _basis_pairs_off_the_oracle() == []  # every mutant was undone


def test_oracle_catches_a_flipped_product_sign(monkeypatch):
    """The blade images come from the 2x2 quaternion images alone, so a wrong
    product-table sign for the mapping-2 gamma0 gamma1 = (i.qk)(qi.vi) fails
    the oracle check."""
    assert (blade_name(28), blade_name(5)) == ("i.qk", "qi.vi")
    flipped = [row[:] for row in algebra.MUL_SIGN]
    flipped[28][5] = -flipped[28][5]
    monkeypatch.setattr(algebra, "MUL_SIGN", flipped)
    checks = {c.name: c.passed for c in run_identity_suite(oracle_pairs=0, state_samples=0)}
    assert checks["mapping-2 oracle spot product"] is False


def test_oracle_sweep_catches_a_sign_the_spot_products_miss(monkeypatch):
    """A wrong sign for (qj.vk)(i.vj), which no spot product reaches, fails the
    random-pair sweep: the integer oracle sweep is not vacuous."""
    a, b = parse_blade("qj.vk"), parse_blade("i.vj")
    flipped = [row[:] for row in algebra.MUL_SIGN]
    flipped[a][b] = -flipped[a][b]
    monkeypatch.setattr(algebra, "MUL_SIGN", flipped)
    checks = {c.name: c for c in run_identity_suite(oracle_pairs=1000, state_samples=0)}
    assert checks["mapping-1 oracle spot product"].passed
    assert checks["mapping-2 oracle spot product"].passed
    sweep = checks["matrix oracle on 1000 random pairs"]
    assert sweep.passed is False
    assert re.fullmatch(r"pair \d+ under seed 0: a = .+, b = .+", sweep.detail), sweep.detail


ORACLE_CHECKS = {"mapping-1 oracle spot product", "mapping-2 oracle spot product",
                 "matrix oracle on 1000 random pairs"}


def test_a_flipped_blade_image_sign_fails_the_oracle(monkeypatch):
    """image_product reads BLADE_IMAGES at call time and matrix_rep keeps the
    images it flattened at import, so a sign flipped in one row of one blade
    image is a wrong right side: a spot product or the sweep refutes it."""
    survivors, right = [], algebra.BLADE_IMAGES
    for blade in range(32):
        for row in range(4):
            images = [list(image) for image in right]
            column, phase = images[blade][row]
            images[blade][row] = column, (phase + 2) % 4
            monkeypatch.setattr(algebra, "BLADE_IMAGES", images)
            failed = {c.name for c in run_identity_suite(1000, 0) if not c.passed}
            if not failed & ORACLE_CHECKS:
                survivors.append((blade_name(blade), row))
    assert survivors == []


def test_the_sweep_catches_a_product_that_overwrites_a_repeated_blade(monkeypatch):
    """A product that keeps only the last term landing on each result blade
    is right whenever a factor has one blade, as in every spot product; only
    the multi-blade pairs of the sweep refute it."""
    def overwriting(self, other):
        if not isinstance(other, Multivector):
            return summing(self, other)
        acc = {}
        for ka, va in self._n.items():
            for kb, vb in other._n.items():
                acc[algebra.MUL_IDX[ka][kb]] = algebra.MUL_SIGN[ka][kb] * va * vb
        return algebra._reduced(self._d * other._d, {k: n for k, n in acc.items() if n})

    summing = Multivector.__mul__
    monkeypatch.setattr(Multivector, "__mul__", overwriting)
    checks = {c.name: c for c in run_identity_suite(oracle_pairs=1000, state_samples=0)}
    assert checks["mapping-1 oracle spot product"].passed
    assert checks["mapping-2 oracle spot product"].passed
    sweep = checks["matrix oracle on 1000 random pairs"]
    assert sweep.passed is False
    assert re.fullmatch(r"pair \d+ under seed 0: a = .+, b = .+", sweep.detail), sweep.detail


def test_center_failure_names_the_missing_elements(monkeypatch):
    flipped = [row[:] for row in algebra.MUL_SIGN]
    flipped[code("i")][code("qi")] = -flipped[code("i")][code("qi")]
    monkeypatch.setattr(algebra, "MUL_SIGN", flipped)
    checks = {c.name: c for c in run_identity_suite(oracle_pairs=0, state_samples=0)}
    center = checks["center is {+-1, +-i}"]
    assert not center.passed and center.detail == "missing {+i, -i}, extra {}"


def test_dualling_counts_double():
    counts = [len(dual_generate(o)) for o in (2, 4, 8, 16, 32, 64)]
    assert counts == [2, 4, 8, 16, 32, 64]


def test_dual_order_2():
    d = dual_generate(2)
    assert {dual_name(e) for e in d} == {"+1", "-1"}


def test_dual_order_8_is_quaternion_group():
    d = dual_generate(8)
    # Q8: one identity, one element of order 2, six of order 4
    assert element_order_census(d, dual_mul) == {1: 1, 2: 1, 4: 6}
    els = {dual_name(e): e for e in d}
    i1j1 = dual_mul(els["+i1"], els["+j1"])
    assert dual_name(i1j1) == "+i1j1"
    assert dual_name(dual_mul(i1j1, i1j1)) == "-1"
    assert i1j1 in d


def _reference_dual_product(x: int, y: int) -> int:
    """Sort the word x y into generator order by adjacent swaps, cancelling g g = -1."""
    sign = (x ^ y) & NEG
    word = [n for n in range(5) if x >> n & 1] + [n for n in range(5) if y >> n & 1]
    anti = {(0, 1), (1, 0), (3, 4), (4, 3)}
    k = 0
    while k < len(word) - 1:
        a, b = word[k], word[k + 1]
        if a < b:
            k += 1
            continue
        sign ^= NEG if a == b or (a, b) in anti else 0
        word[k:k + 2] = [] if a == b else [b, a]
        k = max(k - 1, 0)
    return sign | sum(1 << n for n in word)


def test_dual_mul_equals_word_reduction():
    for x in range(64):
        for y in range(64):
            assert dual_mul(x, y) == _reference_dual_product(x, y)


def test_dual_order_64_isomorphic_to_dirac_group():
    d64 = dual_generate(64)
    group = generate_group()
    image = {dual_element_image(e) for e in d64}
    assert image == group
    assert element_order_census(d64, dual_mul) == element_order_census(group, group_mul)
    els = sorted(d64)
    for a in els:
        for b in els:
            assert dual_element_image(dual_mul(a, b)) == group_mul(dual_element_image(a),
                                                                  dual_element_image(b))


def test_homomorphism_failure_names_its_witness(monkeypatch):
    """A wrong sign for qi qj breaks the generator map; the failing check names
    the dual pair and both images."""
    flipped = [row[:] for row in algebra.MUL_SIGN]
    flipped[code("qi")][code("qj")] = -flipped[code("qi")][code("qj")]
    monkeypatch.setattr(algebra, "MUL_SIGN", flipped)
    checks = {c.name: c for c in run_identity_suite(oracle_pairs=0, state_samples=0)}
    hom = checks["dual order 64 generator map is a homomorphism"]
    assert not hom.passed
    # i1 (i1 j1) = -j1 maps to -qj, but the images multiply to qi (qi qj) = qi (-qk) = +qj
    assert hom.detail == "+i1 * +i1j1 maps to -qj, but +qi * -qk = +qj"


def test_dual_invalid_order():
    with pytest.raises(ValueError):
        dual_generate(7)


def test_multivector_json_roundtrip():
    a = MV("qi", Fraction(3, 4)) + MV("i.qj.vk", Fraction(-2, 5)) + ONE * 2
    d = a.to_dict()
    assert d == {"1": "2", "qi": "3/4", "i.qj.vk": "-2/5"}
    assert Multivector.from_dict(d) == a
