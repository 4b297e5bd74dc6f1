"""CLI: subcommands, formats, exit codes, schemas, golden reports."""

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from nilpotent import cli

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"
SCHEMAS = REPO / "docs" / "schemas"


def run_cli(*argv):
    """Invoke main() in-process, capturing stdout."""
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = cli.main(list(argv))
    finally:
        sys.stdout = old
    return code, out.getvalue()


def load_schema(name):
    with open(SCHEMAS / name) as fh:
        return Draft202012Validator(json.load(fh))


def test_verify_passes():
    code, out = run_cli("algebra", "verify", "--pairs", "50", "--samples", "50")
    assert code == 0
    assert "identities OK" in out
    assert out.startswith("64 group elements")


def test_verify_json_schema():
    code, out = run_cli("--format", "json", "algebra", "verify", "--pairs", "20", "--samples", "20")
    assert code == 0
    report = json.loads(out)
    load_schema("algebra_verify.schema.json").validate(report)
    assert report["status"] == "OK"


def test_multiply_example():
    code, out = run_cli("--format", "json", "algebra", "multiply", "--a", "qi", "--b", "qj")
    assert code == 0
    report = json.loads(out)
    assert report["product"] == "qk"
    load_schema("multivector.schema.json").validate(report["blades"])


def test_multiply_signed_operand():
    code, out = run_cli("--format", "json", "algebra", "multiply", "--a=-qi", "--b", "qj")
    assert json.loads(out)["product"] == "-qk"


def test_cpt_identity_echo():
    code, out = run_cli("--format", "json", "algebra", "cpt", "--op", "TCP",
                        "--E", "5", "--p", "0,0,4", "--m", "3")
    assert code == 0
    report = json.loads(out)
    assert report["input"] == report["output"]
    assert report["sandwich_matches"] is True
    load_schema("nilpotent_state.schema.json").validate(report["output"])


def test_spinor_pairing():
    code, out = run_cli("--format", "json", "algebra", "spinor", "--E", "5",
                        "--p", "0,0,4", "--m", "3", "--pairing", "spin0")
    report = json.loads(out)
    assert report["pair_sum"]["scalar"] == "-72"
    for comp in report["components"]:
        load_schema("nilpotent_state.schema.json").validate(comp)


def test_baryon_subcommand():
    code, out = run_cli("--format", "json", "algebra", "baryon", "--phase", "BGR",
                        "--E", "5", "--p", "0,0,4", "--m", "3")
    report = json.loads(out)
    assert report["scalar_factor"] == "16"
    assert report["survivor"]["signP"] == 1


def test_vacuum_subcommand():
    code, out = run_cli("--format", "json", "algebra", "vacuum", "--charge", "k",
                        "--n", "2", "--E", "5", "--p", "0,0,4", "--m", "3")
    report = json.loads(out)
    assert report["image"]["signE"] == -1
    assert report["per_step_factor"] == {"re": "0", "im": "-10"}


def test_vertex_subcommand():
    code, out = run_cli("--format", "json", "algebra", "vertex", "--vertex", "b",
                        "--E", "5", "--p", "0,0,4", "--m", "3")
    assert json.loads(out)["scalar"] == "-72"


def test_dual_subcommand():
    code, out = run_cli("--format", "json", "algebra", "dual", "--order", "64")
    report = json.loads(out)
    assert report["element_count"] == 64
    assert report["isomorphic_to_dirac_group"] is True


def test_solve_report_schema():
    code, out = run_cli("--format", "json", "solve", "--family", "coulomb",
                        "--qA", "1/10", "--j", "1/2", "--nprime", "0")
    assert code == 0
    report = json.loads(out)
    load_schema("solve_report.schema.json").validate(report)
    assert report["E_over_m"] == pytest.approx(0.994987, abs=1e-6)
    assert report["residual"] == 0.0


def test_solve_strong_radius():
    code, out = run_cli("--format", "json", "solve", "--family", "strong",
                        "--q", "0.4", "--sigma", "1", "--E", "0.75", "--radius")
    assert json.loads(out)["infrared_radius_fm"] == pytest.approx(3.75)


def test_solve_oscillator():
    code, out = run_cli("--format", "json", "solve", "--family", "oscillator",
                        "--m", "1", "--j", "1/2", "--nprime", "0")
    report = json.loads(out)
    assert report["E"] == -0.5
    load_schema("solve_report.schema.json").validate(report)


def test_solve_lennard_jones():
    code, out = run_cli("--format", "json", "solve", "--family", "lennard-jones",
                        "--B", "1", "--C", "1")
    report = json.loads(out)
    assert report["family"] == "inverse-multipole"
    assert report["level_family"] == "oscillator"


def test_solve_potential_json():
    potential = json.dumps({"terms": {"1": "1"}, "coulombPhase": "3/10", "q": "2/5"})
    code, out = run_cli("--format", "json", "solve", "--potential", potential)
    report = json.loads(out)
    assert report["family"] == "confining"
    assert report["residual"] == 0.0


def test_gut_report_schema():
    code, out = run_cli("--format", "json", "gut")
    report = json.loads(out)
    load_schema("gut_report.schema.json").validate(report)
    assert report["solved_M_X"] == pytest.approx(2.9e19, rel=0.05)


def test_gut_mu_flag():
    code, out = run_cli("--format", "json", "gut", "--mu", "0.112")
    report = json.loads(out)
    assert report["couplings_at_mu"]["inv_alpha3"] == pytest.approx(1.0, abs=0.1)


def test_gut_legacy_su5():
    code, out = run_cli("--format", "json", "gut", "--legacy-su5")
    report = json.loads(out)
    legacy = report["legacy_su5"]
    assert 1e14 < legacy["M_X"] < 1e16
    assert legacy["sin2_recomputed_at_MX"] == pytest.approx(0.6, abs=0.05)


def test_gut_grid_csv():
    code, out = run_cli("--format", "csv", "gut", "--grid", "91.1867,14000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert any("coupling_table[1].inv_alpha_em" in line for line in lines)


def test_mass_report_schema():
    code, out = run_cli("--format", "json", "mass", "--all")
    report = json.loads(out)
    load_schema("mass_report.schema.json").validate(report)
    assert report["bosons"]["higgs_zero_count"] == 2592


def test_mass_decuplet_block():
    code, out = run_cli("--format", "json", "mass", "--decuplet")
    report = json.loads(out)
    assert [r["predicted_units"] for r in report["decuplet"]] == [20.0, 20.0, 22.0, 24.0]
    assert "bosons" not in report


def test_exit_code_usage_error():
    assert run_cli("nonsense")[0] == cli.EXIT_USAGE
    assert run_cli("solve", "--family", "nope")[0] == cli.EXIT_USAGE
    assert run_cli("solve", "--family", "coulomb")[0] == cli.EXIT_USAGE  # missing --qA


def test_exit_code_missing_data():
    assert run_cli("--data-dir", "/nonexistent", "mass", "--bosons")[0] == cli.EXIT_DATA


def test_exit_code_verification_failure(monkeypatch):
    from nilpotent.verify import Check

    monkeypatch.setattr(cli.verify, "run_identity_suite",
                        lambda **kw: [Check("forced failure", False, "injected")])
    code, out = run_cli("algebra", "verify")
    assert code == cli.EXIT_VERIFY
    assert "FAIL" in out


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "nilpotent.cli", "algebra", "multiply",
                           "--a", "vi", "--b", "vj"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "i.vk" in proc.stdout


def test_verify_runs_without_numpy():
    script = ("import sys; from nilpotent import cli; "
              "code = cli.main(['algebra', 'verify', '--pairs', '5', '--samples', '5']); "
              "assert 'numpy' not in sys.modules, 'numpy was imported'; sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout


def test_json_determinism():
    runs = [run_cli("--format", "json", "mass", "--all")[1] for _ in range(2)]
    assert runs[0] == runs[1]
    runs = [run_cli("--format", "csv", "gut")[1] for _ in range(2)]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("golden,argv", [
    ("gut_defaults.json", ("--format", "json", "gut")),
    ("gut_legacy_su5.json", ("--format", "json", "gut", "--legacy-su5")),
    ("mass_all.json", ("--format", "json", "mass", "--all")),
    ("mass_ckm.json", ("--format", "json", "mass", "--ckm")),
    ("solve_coulomb.json", ("--format", "json", "solve", "--family", "coulomb",
                            "--qA", "1/10", "--j", "1/2", "--nprime", "0")),
    ("baryon_bgr.json", ("--format", "json", "algebra", "baryon", "--phase", "BGR",
                         "--E", "5", "--p", "0,0,4", "--m", "3")),
    ("gut_defaults.csv", ("--format", "csv", "gut")),
])
def test_golden_reports(golden, argv):
    code, out = run_cli(*argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()
