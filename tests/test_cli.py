import hashlib
import json

import pytest

from schwinger_be import ae, blockenc, estimator, model
from schwinger_be.cli import SCHEMA_VERSION, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_estimate_defaults_reproduce_grid(capsys):
    code, out, _ = run(capsys, "estimate")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert lines[0].split(",")[0] == "n_sites"
    assert len(lines) == 16  # header + 15 rows
    first = lines[1].split(",")
    assert first[0] == "16" and float(first[3]) == pytest.approx(9.11e9,
                                                                 rel=0.01)


def test_estimate_single_cell_json(capsys):
    code, out, _ = run(capsys, "estimate", "--N", "16", "--wt", "1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert len(doc["rows"]) == 1
    assert float(doc["rows"][0]["t_count"]) == pytest.approx(9.11e9, rel=0.01)


def test_estimate_rejects_bad_grid(capsys):
    code, _, err = run(capsys, "estimate", "--N", "9")
    assert code == 2 and "error" in err


def test_estimate_empty_grid_usage_error(capsys):
    code, _, _ = run(capsys, "estimate", "--N")
    assert code == 2


def test_verify_block_pass(capsys):
    code, out, _ = run(capsys, "verify", "--N", "8", "--epsilon", "1e-2")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] and doc["measured_error"] <= 1e-2
    # the CLI stamps the record's schema as it stamps every artifact
    assert doc["schema_version"] == SCHEMA_VERSION


def test_verify_rejects_odd_n(capsys):
    code, _, err = run(capsys, "verify", "--N", "9")
    assert code == 2


# the gate-level fragment stops at N=10, set by its dense 2^N x 2^N block,
# so N=12 and the CLI's largest N=16 are refused; at N=40 its 2^40 basis
# columns must be refused before any is built
@pytest.mark.parametrize("argv,reason", [
    (("--N", "12", "--mode", "full-statevector"), "simulation limit"),
    (("--N", "16", "--mode", "full-statevector"), "simulation limit"),
    (("--N", "40", "--mode", "full-statevector"), "simulation limit"),
    (("--N", "18"), "N <= 16"),
    (("--N", "40"), "N <= 16"),
    (("--epsilon", "-1"), "nonnegative")])
def test_verify_out_of_range_is_usage_error(capsys, argv, reason):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and reason in err


def test_verify_library_error_is_not_usage_error(capsys, monkeypatch):
    # only out-of-range input is exit 2; a fault inside verify propagates
    def broken(*args, **kwargs):
        raise ValueError("library fault")
    monkeypatch.setattr(blockenc, "semantic_diagonal", broken)
    with pytest.raises(ValueError, match="library fault"):
        main(["verify", "--N", "8"])


# inputs the closed forms cannot price: a non-finite or overflowing time or
# rate, an eps outside verify's [0, 14 alpha_S) (305.9 at N=8) or too small
# to price, and empty value lists
@pytest.mark.parametrize("argv", [
    ("estimate", "--N", "16", "--wt", "inf"),
    ("estimate", "--N", "16", "--wt=-inf"),
    ("estimate", "--N", "16", "--wt", "nan"),
    ("estimate", "--N", "16", "--wt", "1e300"),
    ("estimate", "--N", "256", "--wt", "1e300"),
    ("estimate", "--N", "8", "--wt", "1e297"),
    ("estimate", "--N", "16", "--wt", "1e-7"),
    ("estimate", "--rate", "nan"), ("estimate", "--rate", "inf"),
    ("estimate", "--rate", "0"), ("estimate", "--wt"),
    ("physical", "--wt", "inf"), ("physical", "--wt", "nan"),
    ("physical", "--wt", "1e293"), ("physical", "--p-phys"),
    ("physical", "--p-phys", "nan"),
    ("verify", "--N", "8", "--epsilon", "nan"),
    ("verify", "--N", "8", "--epsilon", "inf"),
    ("verify", "--N", "8", "--epsilon", "1e9"),
    ("verify", "--N", "8", "--epsilon", "306"),
    ("verify", "--N", "8", "--epsilon", "1e-310"),
    ("verify", "--N", "8", "--mode", "full-statevector", "--epsilon", "nan"),
    ("ae", "--omega"), ("ae", "--omega", "nan", "--runs", "1")])
def test_unpriceable_input_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("wt", ["1e290", "-1e290", "1e-5"])
def test_estimate_prices_extreme_finite_times(capsys, wt):
    code, out, _ = run(capsys, "estimate", "--N", "16", "256", f"--wt={wt}")
    assert code == 0 and len(out.splitlines()) == 4


@pytest.mark.parametrize("command", ["estimate", "physical"])
def test_cost_library_error_is_not_usage_error(capsys, monkeypatch, command):
    # as for verify: a plain ValueError from the library is a fault
    def broken(*args, **kwargs):
        raise ValueError("library fault")
    monkeypatch.setattr(estimator, "vpa_cost", broken)
    with pytest.raises(ValueError, match="library fault"):
        main([command])


def test_verify_arithmetic_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "arithmetic",
                       "--bits", "6")
    assert code == 0
    assert json.loads(out)["passed"]


def test_verify_subroutine_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "subroutines")
    assert code == 0
    assert json.loads(out)["passed"]


def test_dynamics_series(capsys):
    code, out, _ = run(capsys, "dynamics", "--N", "4", "--t-max", "2.0",
                       "--steps", "5")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    header, first = lines[0].split(","), lines[1].split(",")
    assert header == ["t", "re_g", "im_g", "abs_g", "nu"]
    assert float(first[1]) == pytest.approx(1.0)
    assert float(first[4]) == pytest.approx(0.0, abs=1e-10)
    for ln in lines[1:]:
        assert float(ln.split(",")[3]) <= 1 + 1e-9


def test_dynamics_rows_are_the_two_observables(capsys, monkeypatch):
    # one evolution per row gives the same G and nu as the two functions
    calls = []
    evolve = model._evolved_vacuum
    monkeypatch.setattr(model, "_evolved_vacuum",
                        lambda *a: calls.append(a) or evolve(*a))
    code, out, _ = run(capsys, "dynamics", "--N", "6", "--steps", "9")
    assert code == 0 and len(calls) == 9
    rows = [ln.split(",") for ln in out.splitlines()
            if ln and not ln.startswith("#")][1:]
    p = model.benchmark_params(6)
    for row in rows:
        t = float(row[0])
        g, nu = model.vacuum_persistence(p, t), model.particle_density(p, t)
        assert row[1:] == [f"{g.real:.12f}", f"{g.imag:.12f}",
                           f"{abs(g):.12f}", f"{nu:.12f}"]


def test_dynamics_dense_limit(capsys):
    code, _, err = run(capsys, "dynamics", "--N", "16")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("--N", "3"), ("--N", "0"), ("--N", "-2"), ("--N", "16"),
    ("--steps", "-2"), ("--steps", "0"),
    ("--t-max", "nan"), ("--t-max", "inf"), ("--t-max=-inf",)])
def test_dynamics_usage_errors(capsys, argv):
    code, out, err = run(capsys, "dynamics", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_ae_records_and_determinism(capsys):
    args = ("ae", "--omega", "0.5", "--runs", "5", "--seed", "7",
            "--epsilon", "0.02")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    lines = out1.strip().splitlines()
    recs = [json.loads(ln) for ln in lines]
    assert sum("summary" in r for r in recs) == 1
    data = [r for r in recs if "summary" not in r]
    assert len(data) == 5
    assert all(r["q_psi"] == r["q_pi"] for r in data)


def test_ae_hoeffding_flag(capsys):
    code, out, _ = run(capsys, "ae", "--hoeffding", "--epsilon", "0.005",
                       "--delta", "0.05")
    assert code == 0
    doc = json.loads(out)
    assert doc["hoeffding_queries"] == 73778
    assert doc["chebyshev_worst_case"] == 2964


def test_ae_rejects_bad_omega(capsys):
    code, _, _ = run(capsys, "ae", "--omega", "1.5", "--runs", "1")
    assert code == 2


def test_ae_checks_every_omega_before_any_run(capsys, monkeypatch):
    calls = []
    real = ae.simulate_adaptive_ae
    monkeypatch.setattr(ae, "simulate_adaptive_ae",
                        lambda *a: calls.append(a) or real(*a))
    code, out, err = run(capsys, "ae", "--omega", "0.5", "1.5",
                         "--runs", "1000")
    assert code == 2 and out == "" and err.startswith("error: ")
    assert calls == []


@pytest.mark.parametrize("argv", [
    ("--runs", "0"), ("--runs", "-3"),
    ("--epsilon", "0"), ("--epsilon", "2"), ("--epsilon", "nan"),
    ("--delta", "1"), ("--delta", "0"),
    ("--hoeffding", "--epsilon", "0"), ("--hoeffding", "--delta", "1"),
    ("--seed", "-5")])
def test_ae_usage_errors(capsys, argv):
    code, out, err = run(capsys, "ae", "--omega", "0.5", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_ae_seed_defaults_to_zero(capsys):
    args = ("ae", "--omega", "0.5", "--runs", "2")
    assert run(capsys, *args) == run(capsys, *args, "--seed", "0")


@pytest.mark.parametrize("command", ["verify", "ae"])
def test_format_is_usage_error_where_ignored(capsys, command):
    """Only the tabular commands (estimate, dynamics, physical) take
    --format; verify and ae write JSON alone."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize("bits", ["0", "-1", "32"])
def test_verify_arithmetic_bits_usage_error(capsys, bits):
    code, out, err = run(capsys, "verify", "--suite", "arithmetic",
                         "--bits", bits)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "1..31" in err


def test_physical_headline(capsys):
    code, out, _ = run(capsys, "physical", "--N", "64", "--wt", "10",
                       "--p-phys", "1e-3", "1e-4")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    assert int(rows[0]["physical_qubits"]) == pytest.approx(9e5, rel=0.2)
    assert int(rows[1]["physical_qubits"]) == pytest.approx(2e5, rel=0.2)


def test_physical_rejects_threshold(capsys):
    code, _, _ = run(capsys, "physical", "--p-phys", "0.01")
    assert code == 2


def test_output_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "estimate", "--N", "16", "--wt", "1",
                       "--output", str(path))
    assert code == 0 and out == ""
    assert path.read_text().startswith("# schema_version")


#: sha256 of artifacts whose bytes do not depend on the BLAS build; verify
#: in full-statevector mode and dynamics are left out, as their low digits
#: can vary (the semantic verify runs no LAPACK)
ARTIFACT_SHA256 = {
    ("estimate",):
        "66b706fa2aad88a3784f5a032f97fc81737cf1a13dd26b0edfc1a8c045af989f",
    ("estimate", "--format", "json"):
        "323e42c6bea8a139afc3b6a84d27c339a349c2ac749fb0d85b29af0e05fb5e48",
    ("physical",):
        "fc498e6949ee105b87901d0259d7d06997f86b5243afca381ead0b85fc9dc204",
    ("verify", "--suite", "arithmetic"):
        "8134c828e4502c05a6a693d33540bfbd13fed440d9f426d257f9946172e7ffcf",
    ("verify", "--suite", "subroutines"):
        "3346b72d92d7910afa4bc3cea4a263990433e6e8b0ed6e7473566cd3a62e8a08",
    ("ae", "--hoeffding"):
        "83c42f3be44f66c8061869882bf1cc93014e4137b9b43ce6da2e269e8927d8df",
    ("ae", "--runs", "20", "--seed", "5"):
        "45b7fb02f0a94856d612be3735ce14d753cfdfb038684cc2d07bd206ebdce59d",
    ("verify",):
        "63456855e5129f47222f1848a008ae7405e795efc21eb5bc9fef6b59111585a5",
    ("verify", "--N", "16", "--epsilon", "0"):
        "dffaa55fbc6dba141eab6dbc3083dca19c3b2aa7a9cfdf0d0cb9bc93654ed96d",
}


def test_artifacts_byte_identical(capsys):
    for argv, want in ARTIFACT_SHA256.items():
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, argv
