"""The identity suite's sample draws and the cleared-integer state forms.

The sweeps draw their samples through ``rng.choice`` over ranges and build
them on ints. The reference generators below draw through ``randint`` and
``randrange`` and build on ``Fraction``; the suite must see exactly the same
samples, and leave the generator in exactly the same state.
"""

import random
from fractions import Fraction

import pytest

from nilpotent import states, verify
from nilpotent.algebra import MV, Multivector, parse_blade
from nilpotent.states import NilpotentVector, make_nilpotent


def _reference_multivector(rng, max_blades=6):
    coeffs = {}
    for _ in range(rng.randint(1, max_blades)):
        coeffs[rng.randrange(32)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Multivector(coeffs)


def _reference_on_shell(rng):
    px, py, pz, m, e = rng.choice(verify.ON_SHELL_QUADRUPLES)
    scale = Fraction(rng.randint(1, 12), rng.randint(1, 12))
    comps = [px * scale, py * scale, pz * scale]
    rng.shuffle(comps)
    comps = [c if rng.random() < 0.5 else -c for c in comps]
    return make_nilpotent(e * scale, tuple(comps), m * scale,
                          rng.choice((1, -1)), rng.choice((1, -1)))


def _reference_realized(x):
    values = (x.E, *x.p, x.m)
    signs = (x.sign_e, x.sign_p, x.sign_p, x.sign_p, 1)
    return Multivector({k: v if c == s else -v
                        for (k, c), v, s in zip(states._STATE_UNITS, values, signs)})


def _reference_defect(x):
    e, m = Fraction(x.E), Fraction(x.m)
    return e * e - sum((Fraction(c) ** 2 for c in x.p), Fraction(0)) - m * m


def _field_types(x):
    return [type(v) for v in (x.E, *x.p, x.m, x.sign_e, x.sign_p)]


SEEDS = range(200)


def test_multivector_draws_match_randint_and_fraction():
    for seed in SEEDS:
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(50):
            new, old = verify._random_multivector(rng), _reference_multivector(ref)
            assert new._d == old._d, seed
            assert list(new._n.items()) == list(old._n.items()), seed  # insertion order too
        assert rng.getstate() == ref.getstate(), seed


def test_on_shell_draws_match_randint_and_fraction():
    for seed in SEEDS:
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(50):
            new, old = verify.random_on_shell(rng), _reference_on_shell(ref)
            assert tuple(new) == tuple(old), seed
            assert _field_types(new) == _field_types(old), seed
            assert isinstance(new.p, tuple) and new.on_shell, seed
        assert rng.getstate() == ref.getstate(), seed


def test_interleaved_sweeps_leave_the_same_generator_state():
    """The suite draws pairs, then states, from one generator."""
    rng, ref = random.Random(7), random.Random(7)
    for _ in range(100):
        verify._random_multivector(rng), verify._random_multivector(rng)
        _reference_multivector(ref), _reference_multivector(ref)
    for _ in range(100):
        verify.random_on_shell(rng), _reference_on_shell(ref)
    assert rng.getstate() == ref.getstate()


def _states(rng):
    """Off-shell states with Fraction and int fields, under all four sign pairs."""
    def rational():
        return Fraction(rng.randint(-12, 12), rng.randint(1, 12))

    for _ in range(60):
        fields = [rational() for _ in range(5)]
        se, sp = rng.choice((1, -1)), rng.choice((1, -1))
        yield NilpotentVector(fields[0], tuple(fields[1:4]), fields[4], se, sp)
        ints = [f.numerator for f in fields]
        yield NilpotentVector(ints[0], tuple(ints[1:4]), ints[4], se, sp)
    yield NilpotentVector(0, (0, 0, 0), 0)


def test_realized_and_defect_match_the_fraction_forms():
    for x in _states(random.Random(3)):
        realized = x.realized
        old = _reference_realized(x)
        assert (realized._d, realized._n) == (old._d, old._n), x
        defect = x.mass_shell_defect
        assert type(defect) is Fraction and defect == _reference_defect(x), x


def test_string_fields_read_as_their_fractions():
    """A string field reads as its Fraction, as the Multivector constructor reads it."""
    for x in _states(random.Random(5)):
        text = NilpotentVector(str(x.E), tuple(map(str, x.p)), str(x.m), x.sign_e, x.sign_p)
        assert text.realized == x.realized, x
        assert text.mass_shell_defect == x.mass_shell_defect, x
    # with no sign to apply, the Fraction form took string fields as they are
    text = NilpotentVector("5/2", ("-3/2", "0", "2"), "1/3")
    assert text.realized == _reference_realized(text)


def test_realized_and_defect_refuse_float_fields():
    x = NilpotentVector(0.5, (Fraction(0), Fraction(0), Fraction(0)), Fraction(0))
    with pytest.raises(TypeError, match="exact rationals"):
        x.realized
    with pytest.raises(TypeError, match="exact rationals"):
        x.mass_shell_defect


def test_defect_is_the_scalar_part_of_the_square():
    """The defect uses no product, so it is an independent check of the square."""
    for x in _states(random.Random(4)):
        assert (x.realized * x.realized) == MV("1") * x.mass_shell_defect, x


# ---------------------------------------------------------------------------
# a broken state map fails a named check instead of raising
# ---------------------------------------------------------------------------

BARYON_CHECK = "six baryon phases collapse with |factor| = p^2"


@pytest.mark.parametrize("unit,sandwiches", [("i", "PT"), ("qk", "TC")])
def test_a_wrong_mass_unit_fails_named_checks(unit, sandwiches, monkeypatch):
    """The suite used to die in an AssertionError out of baryon_product."""
    mutant = [*states._STATE_UNITS[:4], (parse_blade(unit), 1)]
    monkeypatch.setattr(states, "_STATE_UNITS", mutant)
    failed = {c.name: c.detail for c in verify.run_identity_suite(0, 20) if not c.passed}
    assert failed == {
        "Pauli exclusion on samples": "",
        "vacuum factor |lam| = 2E on samples": "",
        **{f"{op} sandwich matches sign flip": "" for op in sandwiches},
        BARYON_CHECK: "BGR: baryon product failed to collapse onto a single nilpotent",
    }


def test_a_wrong_mass_shell_defect_fails_named_checks(monkeypatch):
    """The suite used to die in a ValueError out of baryon_product."""
    right = NilpotentVector.mass_shell_defect
    monkeypatch.setattr(NilpotentVector, "mass_shell_defect",
                        property(lambda x: right.fget(x) + 1))
    failed = {c.name: c.detail for c in verify.run_identity_suite(0, 20) if not c.passed}
    assert failed == {
        "on-shell square zero (20 samples)": "",
        BARYON_CHECK: "BGR: baryon_product requires an on-shell state (E^2 = p^2 + m^2)",
    }
