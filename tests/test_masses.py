"""Mass calculators: multiplets, GMO, bosons, generations, mixing, ratios."""

import math

import pytest

from nilpotent import InvalidDataError
from nilpotent.datafiles import data_path
from nilpotent.masses import (
    MassUnit,
    ckm_apply,
    ckm_ideal,
    electroweak_bosons,
    family_table,
    fermion_coupling_sum,
    generation_partition,
    gmo_meson_k,
    gmo_octet_residual,
    higgs_mass,
    higgs_zero_count,
    load_constants,
    load_multiplets,
    mass_fraction,
    mb_over_mtau,
    ms_over_mmu,
    regge_mass_squared,
    regge_spin,
    z_zero_count,
)

CONSTANTS = load_constants()
UNIT = MassUnit.from_constants(CONSTANTS)


def test_unit_value():
    assert UNIT.unit_gev == pytest.approx(0.0700, abs=0.0001)


def test_sigma_decuplet_mass():
    sigma = load_multiplets().find("decuplet", "Sigma*")[0]
    assert (min(sigma.n0_candidates), sigma.multiplicity, sigma.max_multiplicity) == (15, 3, 4)
    units = sigma.predicted_units[0]
    gev = units * UNIT.unit_gev
    assert units == 20.0
    assert gev == pytest.approx(1.4005, abs=0.0005)
    assert abs(gev - 1.385) / 1.385 < 0.015


def test_omega_mass():
    omega = load_multiplets().find("decuplet", "Omega")[0]
    assert (omega.n0_candidates, omega.multiplicity, omega.max_multiplicity) == ((6,), 1, 4)
    assert omega.predicted_units == (24.0, 24.0)


def test_zero_n0():
    row = load_multiplets()[0]._replace(n0_candidates=(0,), multiplicity=2, max_multiplicity=3)
    assert row.predicted_units == (0.0, 0.0)


def test_zero_multiplicity_rejected(tmp_path):
    """The loader refuses M = 0, so the formula never divides by it."""
    shipped = open(data_path("multiplets.csv")).read()
    (tmp_path / "multiplets.csv").write_text(shipped.replace("Omega,sss,,1,4,", "Omega,sss,,0,4,"))
    with pytest.raises(InvalidDataError, match="the row Omega has M '0', expected an integer"):
        load_multiplets(str(tmp_path))


def test_decuplet_predictions():
    rows = family_table(load_multiplets(), "decuplet", UNIT)
    assert [r["predicted_units"] for r in rows] == [20.0, 20.0, 22.0, 24.0]
    delta = rows[0]
    assert delta["measured_units"] == 17.6 and delta["measured_units_hi"] == 19.6


def test_decuplet_equal_spacing():
    rows = {r["name"]: r for r in family_table(load_multiplets(), "decuplet", UNIT)}
    assert rows["Xi*"]["predicted_units"] - rows["Sigma*"]["predicted_units"] == 2.0
    assert rows["Omega"]["predicted_units"] - rows["Xi*"]["predicted_units"] == 2.0
    # measured steps from the Delta rest value stay near 2 units
    seq = [rows[n]["measured_units"] for n in ("Delta", "Sigma*", "Xi*", "Omega")]
    for a, b in zip(seq, seq[1:]):
        assert b - a == pytest.approx(2.0, abs=0.25)


def test_octet_table():
    rows = {r["name"]: r for r in family_table(load_multiplets(), "octet", UNIT)}
    assert rows["N"]["predicted_units"] == 13.5
    assert rows["N"]["measured_units"] == 13.4
    assert (rows["Lambda"]["predicted_units"], rows["Lambda"]["predicted_units_hi"]) == (15.0, 21.0)
    assert (rows["Sigma"]["predicted_units"], rows["Sigma"]["predicted_units_hi"]) == (15.0, 19.0)
    assert (rows["Xi"]["predicted_units"], rows["Xi"]["predicted_units_hi"]) == (16.5, 19.5)


def test_octet_gmo_selections_inside_ranges():
    rows = {r["name"]: r for r in family_table(load_multiplets(), "octet", UNIT)}
    for name in ("Lambda", "Sigma", "Xi"):
        row = rows[name]
        assert row["predicted_units"] <= row["measured_units"] <= row["predicted_units_hi"]


def test_meson_table():
    rows = {r["name"]: r for r in family_table(load_multiplets(), "meson", UNIT)}
    assert rows["pi"]["predicted_units"] == 2.0
    assert rows["pi"]["predicted_gev"] == pytest.approx(0.140, rel=0.005)
    assert (rows["K"]["predicted_units"], rows["K"]["predicted_units_hi"]) == (3.0, 11.0)
    assert (rows["eta"]["predicted_units"], rows["eta"]["predicted_units_hi"]) == (4.0, 12.0)
    for name in ("K", "eta"):
        row = rows[name]
        assert row["predicted_units"] <= row["measured_units"] <= row["predicted_units_hi"]


def test_dataset_n0_matches_charge_table_counting():
    """The baryon candidate lists counted from the charge tables are the ones
    the dataset's n0_candidates cells held before they were derived."""
    baryons = {m.name: m.n0_candidates for m in load_multiplets()
               if m.family in ("decuplet", "octet")}
    assert baryons == {
        "Delta": (20, 22, 24), "Sigma*": (15, 17, 19), "Xi*": (11, 13), "Omega": (6,),
        "N": (9, 11, 13), "Lambda": (5, 7), "Sigma": (15, 17, 19), "Xi": (11, 13),
    }


def test_gmo_octet_residual_quoted_values():
    assert abs(gmo_octet_residual(13.5, 15.9, 17.0, 18.9)) <= 0.1
    assert gmo_octet_residual(13.5, 15.9, 17.0, 18.9) == pytest.approx(0.025, abs=1e-9)


def test_gmo_octet_symmetric():
    assert gmo_octet_residual(5, 5, 5, 5) == 0


def test_gmo_octet_linear_in_lambda():
    base = gmo_octet_residual(13.5, 15.9, 17.0, 18.9)
    shifted = gmo_octet_residual(13.5, 15.9 + 0.4, 17.0, 18.9)
    assert shifted - base == pytest.approx(-0.75 * 0.4)


def test_gmo_meson_k():
    mk = gmo_meson_k(2.0, 7.8)
    assert mk == pytest.approx(6.83, abs=0.005)
    assert abs(mk - 7.1) / 7.1 < 0.05


def test_gmo_meson_degenerate():
    assert gmo_meson_k(3.0, 3.0) == pytest.approx(3.0)


def test_gmo_meson_interval_map():
    lo, hi = gmo_meson_k(2.0, 4.0), gmo_meson_k(2.0, 12.0)
    assert lo == pytest.approx(math.sqrt(1 + 12))
    assert hi == pytest.approx(math.sqrt(1 + 108))


def test_higgs_zero_count():
    assert higgs_zero_count() == 2592
    assert z_zero_count() == 1296


def test_higgs_and_z_masses():
    assert higgs_mass(UNIT) == pytest.approx(181.5, abs=1.0)
    assert z_zero_count() * UNIT.unit_gev == pytest.approx(90.8, abs=1.0)


def test_electroweak_bosons():
    block = electroweak_bosons(91.1867, 0.25, CONSTANTS["m_w_measured_gev"],
                               CONSTANTS["higgs_vev_empirical_gev"], UNIT)
    assert block.m_w_predicted == pytest.approx(91.1867 * math.sqrt(0.75), rel=1e-12)
    assert block.m_w_predicted == pytest.approx(78.97, abs=0.01)
    assert block.f_from_mw == pytest.approx(241.35, abs=1e-9)
    assert block.f_empirical == 246.0
    assert block.m_top == pytest.approx(173.9, abs=0.5)


def test_electroweak_invalid_sin2():
    with pytest.raises(ValueError):
        electroweak_bosons(91.1867, 1.5, CONSTANTS["m_w_measured_gev"],
                           CONSTANTS["higgs_vev_empirical_gev"], UNIT)


def test_fermion_coupling_sum():
    assert fermion_coupling_sum(1.0, 0.25) == pytest.approx(math.sqrt(8.0 / 3.0), rel=1e-14)
    assert fermion_coupling_sum(2.0, 0.25) == pytest.approx(2.0 * math.sqrt(8.0 / 3.0), rel=1e-14)


def test_mass_fraction():
    assert mass_fraction(1.0, 1.0) == pytest.approx(math.sqrt(3.0 / 8.0), rel=1e-14)
    # the full coupling sum maps back to the whole Higgs mass
    assert mass_fraction(fermion_coupling_sum(1.0, 0.25), 1.0) == pytest.approx(1.0, rel=1e-14)


def test_generation_partition():
    alpha = 1.0 / 137.036
    g1, g2, g3 = generation_partition(182.0, alpha)
    assert g1 + g2 + g3 == pytest.approx(182.0, rel=1e-14)
    assert g2 / g1 == pytest.approx(alpha, rel=1e-14)
    assert g3 / g2 == pytest.approx(alpha, rel=1e-14)
    assert (g1, g2, g3) == pytest.approx((180.7, 1.32, 0.0096), rel=0.01)
    # the quoted lepton-adjusted triple sits within 2%
    for got, quoted in zip((g1, g2, g3), (179.0, 1.3, 9.5e-3)):
        assert abs(got - quoted) / quoted < 0.02


def test_generation_partition_alpha_zero():
    assert generation_partition(10.0, 0.0) == (10.0, 0.0, 0.0)


def test_ckm_matrix_shape():
    m = ckm_ideal(0.25)
    assert m[0] == [1.0, 0.25, 0.0]
    assert m[1] == [-0.25, 1.0, 0.0625]
    assert m[2] == [0.0, -0.0625, 1.0]


def test_ckm_rotation_quoted_values():
    res = ckm_apply((0.511e-3, 0.10566, 1.770), 0.25)
    e, mu, tau = res["rotated"]
    assert e == pytest.approx(0.0269, rel=0.01)
    assert mu == pytest.approx(0.216, rel=0.01)
    assert tau == pytest.approx(1.763, rel=0.01)
    assert res["mu_over_e"] == pytest.approx(8.0, rel=0.01)
    assert res["tau_over_mu"] == pytest.approx(8.16, rel=0.01)


def test_ckm_identity_at_lambda_zero():
    res = ckm_apply((0.511e-3, 0.10566, 1.770), 0.0)
    assert res["rotated"] == (0.511e-3, 0.10566, 1.770)


def test_ckm_continuous_near_quarter():
    left = ckm_apply((0.511e-3, 0.10566, 1.770), 0.24)["rotated"]
    right = ckm_apply((0.511e-3, 0.10566, 1.770), 0.26)["rotated"]
    for a, b in zip(left, right):
        assert abs(a - b) < 0.02
    # first component grows monotonically with lambda
    es = [ckm_apply((0.511e-3, 0.10566, 1.770), lam)["rotated"][0]
          for lam in (0.23, 0.24, 0.25, 0.26, 0.27)]
    assert all(a < b for a, b in zip(es, es[1:]))


def test_mb_over_mtau_quoted_inputs():
    ratio = mb_over_mtau(0.10827, 0.1088, 0.01908, 1.003)
    assert ratio == pytest.approx(2.705, abs=0.005)
    assert ratio * 1.770 == pytest.approx(4.79, abs=0.01)


def test_ms_over_mmu_variant():
    ratio = ms_over_mmu(0.10827, 1.0 / 3.64, 0.01908, 1.003)
    assert ratio == pytest.approx(2.832, abs=0.005)
    assert ratio * 0.10566 == pytest.approx(0.299, abs=0.002)


def test_ratio_trivial_at_unity():
    assert mb_over_mtau(1.0, 1.0, 1.0, 1.0) == 1.0


def test_ratio_multiplicative_factorization():
    full = mb_over_mtau(0.10827, 0.1088, 0.01908, 1.003)
    parts = (
        mb_over_mtau(0.10827, 1.0, 1.0, 1.0)
        * mb_over_mtau(1.0, 0.1088, 1.0, 1.0)
        * mb_over_mtau(1.0, 1.0, 0.01908, 1.0)
        * 1.003
    )
    assert full == pytest.approx(parts, rel=1e-12)


def test_regge():
    assert regge_mass_squared(1.0, 0.9) == pytest.approx(0.9)
    assert math.sqrt(regge_mass_squared(1.0, 0.9)) == pytest.approx(0.949, abs=0.001)
    assert regge_mass_squared(0.0, 0.9) == 0.0
    assert regge_mass_squared(2.0, 0.9) == 2 * regge_mass_squared(1.0, 0.9)
    assert regge_spin(0.9, 0.9) == pytest.approx(1.0)


def test_regge_invalid_slope():
    with pytest.raises(ValueError):
        regge_mass_squared(1.0, 0.0)


def test_unit_consistency_everywhere():
    """Every GeV figure equals its unit figure times the quantum, to 1e-12."""
    for table in (family_table(load_multiplets(), family, UNIT)
                  for family in ("decuplet", "octet", "meson")):
        for row in table:
            assert row["predicted_gev"] == pytest.approx(
                row["predicted_units"] * UNIT.unit_gev, rel=1e-12
            )
    assert higgs_mass(UNIT) == pytest.approx(2592 * UNIT.unit_gev, rel=1e-12)


def test_constants_dataset_loads():
    constants = load_constants()
    assert constants["m_z_gev"] == 91.1867
    unit = MassUnit.from_constants(constants)
    assert unit.unit_gev == pytest.approx(0.0700, abs=1e-4)


def test_data_dir_env_var_override(tmp_path, monkeypatch):
    import json
    import shutil

    from nilpotent.datafiles import DATA_ENV_VAR

    for name in ("constants.json", "multiplets.csv"):
        shutil.copy(data_path(name), tmp_path / name)
    doctored = json.loads((tmp_path / "constants.json").read_text())
    doctored["m_z_gev"] = 90.0
    (tmp_path / "constants.json").write_text(json.dumps(doctored))
    monkeypatch.setenv(DATA_ENV_VAR, str(tmp_path))
    assert load_constants()["m_z_gev"] == 90.0
    assert len(load_multiplets()) == len(load_multiplets(str(tmp_path)))


def test_missing_dataset_reports(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_constants(str(tmp_path))
