"""Acceptance suite: every published number at its stated tolerance.

One test per criterion; each prints a single pass line (run with -s to see
them inline).  Tolerances are pinned here, not deferred.
"""

import math
import random
from fractions import Fraction

import pytest

from nilpotent import charges, geometry, masses, spectra, states, unification
from nilpotent.algebra import MV
from nilpotent.verify import random_on_shell, run_identity_suite

M_Z = 91.1867
PLANCK = 1.22e19


def _report(n, text):
    print(f"acceptance {n}: PASS - {text}")


def test_criterion_01_grand_unification_scale():
    mx = unification.solve_MX(1 / 128.0, 0.118, 0.25, M_Z)
    assert 2.8e19 / 1.5 <= mx <= 2.8e19 * 1.5
    _report(1, f"M_X = {mx:.3e} GeV within x1.5 of 2.8e19")


def test_criterion_02_planck_anchored_couplings():
    alpha_g = unification.alphaG_at(0.118, PLANCK, M_Z)
    inv_ag = 1.0 / alpha_g
    inv_a2 = unification.run_alpha2(alpha_g, PLANCK, M_Z)
    inv_a = unification.run_alpha_em(alpha_g, PLANCK, M_Z)
    inv_a14 = unification.run_alpha_em(alpha_g, PLANCK, 14000.0)
    mu1 = unification.mu_for_alpha3(1.0, alpha_g, PLANCK)
    assert abs(inv_ag - 52.4) <= 0.5
    assert abs(inv_a2 - 31.5) <= 0.3
    assert abs(inv_a - 128.0) <= 1.0
    assert abs(inv_a14 - 118.0) <= 1.0
    assert abs(mu1 - 0.112) / 0.112 <= 0.15
    _report(2, f"1/aG={inv_ag:.1f}, 1/a2={inv_a2:.1f}, 1/a={inv_a:.1f}, "
               f"1/a(14TeV)={inv_a14:.1f}, mu(a3=1)={mu1:.3f} GeV")


def test_criterion_03_mixing_angle_exact_rationals():
    phenom = unification.sin2_from_content(unification.phenomenological_content())
    leptonlike = unification.sin2_from_content(unification.lepton_like_content())
    assert phenom == Fraction(3, 8)
    assert leptonlike == Fraction(1, 4)
    _report(3, "sin^2(theta_W) = 3/8 phenomenological, 1/4 lepton-like, exact")


def test_criterion_04_vacuum_polarization_exact():
    assert unification.b1_coefficient(unification.B1_CONVENTIONAL) == Fraction(5, 3)
    assert unification.b1_coefficient(unification.B1_LEPTON_LIKE) == Fraction(3)
    _report(4, "coefficients 5/(3 pi) and 3/pi, exact")


def test_criterion_05_decuplet_and_pion():
    unit = masses.MassUnit.from_constants(masses.load_constants())
    rows = masses.family_table(masses.load_multiplets(), "decuplet", unit)
    assert [r["predicted_units"] for r in rows] == [20.0, 20.0, 22.0, 24.0]
    pi_gev = 2 * unit.unit_gev
    assert abs(pi_gev - 0.140) / 0.140 <= 0.005
    sigma_gev = 20 * unit.unit_gev
    assert abs(sigma_gev - 1.385) / 1.385 <= 0.015
    _report(5, f"decuplet (20,20,22,24) units; pi = {pi_gev:.4f} GeV; "
               f"Sigma = {sigma_gev:.4f} GeV vs 1.385")


def test_criterion_06_gmo_checks():
    residual = masses.gmo_octet_residual(13.5, 15.9, 17.0, 18.9)
    assert abs(residual) <= 0.1
    mk = masses.gmo_meson_k(2.0, 7.8)
    assert abs(mk - 7.1) / 7.1 <= 0.05
    _report(6, f"octet residual {residual:.3f} units; m_K = {mk:.2f} vs 7.1 units")


def test_criterion_07_boson_block():
    constants = masses.load_constants()
    unit = masses.MassUnit.from_constants(constants)
    assert masses.higgs_zero_count() == 2592
    m_h = masses.higgs_mass(unit)
    assert abs(m_h - 181.5) <= 1.0
    assert masses.z_zero_count() == 1296
    m_z0 = masses.z_zero_count() * unit.unit_gev
    assert abs(m_z0 - 90.8) <= 1.0
    block = masses.electroweak_bosons(M_Z, 0.25, constants["m_w_measured_gev"],
                                      constants["higgs_vev_empirical_gev"], unit)
    assert block.f_from_mw == pytest.approx(241.35, abs=1e-9)
    assert abs(block.m_top - 173.9) <= 0.5
    assert masses.fermion_coupling_sum(1.0, 0.25) == pytest.approx(math.sqrt(8.0 / 3.0), rel=1e-14)
    _report(7, f"2592 zeros -> {m_h:.1f} GeV; 1296 -> {m_z0:.1f} GeV; "
               f"f = {block.f_from_mw:.2f}; m_t = {block.m_top:.1f}; sum g_f/g = sqrt(8/3)")


def test_criterion_08_ckm_rotation():
    res = masses.ckm_apply((0.511e-3, 0.10566, 1.770), 0.25)
    e, mu, tau = res["rotated"]
    for got, quoted in zip((e, mu, tau), (0.0269, 0.216, 1.763)):
        assert abs(got - quoted) / quoted <= 0.01
    assert abs(res["mu_over_e"] - 8.0) / 8.0 <= 0.01
    assert abs(res["tau_over_mu"] - 8.16) / 8.16 <= 0.01
    _report(8, f"rotated ({e:.4f}, {mu:.3f}, {tau:.3f}) GeV; "
               f"ratios {res['mu_over_e']:.2f}, {res['tau_over_mu']:.2f}")


def test_criterion_09_running_mass_ratios():
    rb = masses.mb_over_mtau(0.10827, 0.1088, 0.01908, 1.003)
    assert abs(rb - 2.705) <= 0.005
    m_b = rb * 1.770
    assert abs(m_b - 4.79) <= 0.01
    rs = masses.ms_over_mmu(0.10827, 1.0 / 3.64, 0.01908, 1.003)
    assert abs(rs - 2.832) <= 0.005
    m_s = rs * 0.10566
    assert abs(m_s - 0.299) <= 0.002
    _report(9, f"m_b/m_tau = {rb:.4f} -> m_b = {m_b:.3f} GeV; "
               f"m_s/m_mu = {rs:.4f} -> m_s = {m_s:.4f} GeV")


def test_criterion_10_infrared_radius():
    r = geometry.infrared_radius(0.75, 0.4, 1.0)
    assert r == pytest.approx(3.75, rel=1e-12)
    _report(10, f"r = 2E/(q sigma) = {r} fm (reduced-mass reading of ~4 fm)")


def test_criterion_11_algebra_suite():
    pentad_checks = [
        f"{tag} gamma{k} square" for tag in ("mapping-1", "mapping-2") for k in (0, 1, 2, 3, 5)
    ] + [
        f"{tag} gamma{a}|{b} anticommute"
        for tag in ("mapping-1", "mapping-2") for a in range(5) for b in range(a + 1, 5)
    ]
    required = [
        "group order 64",
        "matrix oracle on 1000 random pairs",
        *pentad_checks,
        "dual order 64 image bijective",
        "dual order 64 census matches",
        "dual order 64 generator map is a homomorphism",
    ]
    checks = {c.name: c.passed
              for c in run_identity_suite(oracle_pairs=1000, state_samples=0, seed=0)}
    assert {name: checks.get(name) for name in required} == dict.fromkeys(required, True)
    assert all(checks.values())
    _report(11, "group order 64; oracle exact on 1000 pairs; both pentads; "
                "dual order 64 isomorphic")


def test_criterion_12_nilpotent_suite():
    rng = random.Random(1)
    for _ in range(1000):
        x = random_on_shell(rng)
        assert (x.realized * x.realized).is_zero
        mv, lam = states.vacuum_chain(x, 1)
        assert lam in (MV("i", 2 * x.E), MV("i", -2 * x.E))
        assert mv == lam * x.realized
    x = states.make_nilpotent(5, (0, 0, 4), 3)
    assert states.conjugate(x, "CP") == states.conjugate(x, "T")
    assert states.conjugate(x, "PT") == states.conjugate(x, "C")
    assert states.conjugate(x, "TC") == states.conjugate(x, "P")
    assert states.conjugate(x, "TCP") == x
    f = states.make_spinor(5, (3, 0, 4), 0)
    a = states.make_spinor(5, (3, 0, 4), 0, "antifermion")
    assert states.spinor_pair_sum(f, a, "spin0").is_zero
    assert not states.spinor_pair_sum(f, a, "spin1").is_zero
    for phase in states.BARYON_PHASES:
        factor, _ = states.baryon_product(phase, 5, (0, 0, 4), 3)
        assert abs(factor) == 16
    for vertex in "abcd":
        assert states.vertex_sum(vertex, 5, (3, 0, 4), 0).is_zero
    small = states.vertex_sum("b", 5, (0, 0, 4), 3).scalar_part
    big = states.vertex_sum("b", 10, (0, 0, 8), 6).scalar_part
    assert small != 0 and big == 4 * small
    _report(12, "1000 on-shell states: X^2 = 0, |lam| = 2E; CPT table; "
                "Goldstone/spin-1 split; baryon |factor| = p^2; vertex ~ m^2")


def test_criterion_13_solver_suite():
    rng = random.Random(2)
    import sympy as sp

    def rand_frac():
        return Fraction(rng.randint(1, 9), rng.randint(1, 9))

    for _ in range(8):
        qn = spectra.QuantumNumbers(Fraction(2 * rng.randint(0, 2) + 1, 2), rng.randint(0, 3))
        families = [
            spectra.PotentialSpec({1: rand_frac()}, coulomb_phase=rand_frac(),
                                  coupling=rand_frac()),
            spectra.PotentialSpec({}, coulomb_phase=Fraction(1, rng.randint(3, 12))),
            spectra.PotentialSpec({2: rand_frac()}, coulomb_phase=sp.I * sp.Rational(rand_frac())),
            spectra.PotentialSpec({-6: rand_frac(), -12: -rand_frac()},
                                  coulomb_phase=sp.I * sp.Rational(rand_frac())),
        ]
        for V in families:
            sol = spectra.match_coefficients(V, qn)
            assert spectra.residual_verify(V, sol, qn) == 0.0
    lj = spectra.lennard_jones_solution(sp.I / 2, 1, 1, spectra.QuantumNumbers(Fraction(1, 2), 0))
    for j, n in ((Fraction(1, 2), 0), (Fraction(3, 2), 1)):
        assert lj.level_series.levels(j, n) == spectra.oscillator_levels(1, j, n)
    for qa, j, n in ((0.1, Fraction(1, 2), 0), (0.3, Fraction(3, 2), 2)):
        qn = spectra.QuantumNumbers(j, n)
        V = spectra.PotentialSpec({}, coulomb_phase=Fraction(qa).limit_denominator(10**6))
        sol = spectra.match_coefficients(V, qn)
        gt = sp.sympify(str(sol.branches[0].solver_vars["gamma_plus_nu_plus_1"]))
        closed = float(1 / sp.sqrt(1 + (sp.nsimplify(qa) / gt) ** 2))
        assert abs(closed - spectra.coulomb_levels(qa, j, n)) < 1e-12
    _report(13, "residuals exact-zero over random rational parameters in all "
                "four families; LJ = oscillator levels; closed form to 1e-12")


def test_criterion_14_charge_suite():
    for w in (-1, 0, 1):
        for s in (-1, 0, 1):
            for e in (0, 1):
                assert charges.charge_dirac(w, s, e) == [Fraction(-w * w + s * s)] * 4
    tables = charges.build_tables()
    assert tables == charges.build_tables()
    assert charges.tables_to_csv(tables) == charges.tables_to_csv(charges.build_tables())
    assert charges.su5_grid().generator_count == 24
    assert charges.su5_grid(extended=True).generator_count == 25
    _report(14, "charge rows = -w^2 + s^2 over {-1,0,1}^2, e-independent; "
                "tables idempotent; SU(5) 24 (+1 extended)")
