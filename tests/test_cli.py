import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import invspec
from invspec import cli
from invspec.core import PI, SpectralData, sample_potential, write_grid_function_csv
from invspec.roundtrip import example6_data
from test_core import MALFORMED_CSV, MALFORMED_JSON


# the directory holding the imported package, so that the child process runs
# the same source tree from any cwd, installed or not
SRC_DIR = str(Path(invspec.__file__).resolve().parents[1])
# the forward data of q = cos x at beta = pi/3, N = 64, that the benchmark inverts
COS_DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "cos_beta60_n64.json"


def run_cli(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "invspec", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def test_cli_imports_numpy_and_scipy_linalg_only():
    # start-up: the package loads no scipy subpackage beyond scipy.linalg
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    code = ("import sys, invspec.cli; print(invspec.cli.__file__); "
            "print(*sorted(m for m in sys.modules if m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    path, loaded = out.stdout.splitlines()
    assert Path(path).resolve().is_relative_to(SRC_DIR)
    heavy = {"scipy.interpolate", "scipy.integrate", "scipy.optimize", "scipy.fft", "scipy.special"}
    assert heavy.isdisjoint(loaded.split())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    q = sample_potential(np.cos, 257)
    write_grid_function_csv(q, d / "q.csv")
    (d / "ref.json").write_text(example6_data(40).to_json())
    bad = example6_data(20)
    a = bad.norming.copy()
    a[2] = -0.5
    (d / "bad.json").write_text(SpectralData(bad.beta, bad.mu, a).to_json())
    return d


@pytest.fixture(scope="module")
def forward_out(workdir):
    """fw/spectral.json: forward data of q = cos, beta = pi/3, N = 16."""
    r = run_cli("forward", "q.csv", "--beta", repr(PI / 3), "-N", "16", "-o", "fw",
                cwd=workdir)
    assert r.returncode == 0, r.stderr
    return workdir / "fw" / "spectral.json"


@pytest.fixture(scope="module")
def inverse_out(workdir, forward_out):
    """inv/: q_recovered.csv and report.json recovered from fw/spectral.json."""
    r = run_cli("inverse", "fw/spectral.json", "-o", "inv", cwd=workdir)
    assert r.returncode == 0, r.stderr
    return workdir / "inv"


def test_usage_error_exit_code(workdir):
    r = run_cli("forward", "q.csv", cwd=workdir)  # --beta missing
    assert r.returncode == 64
    r = run_cli("nonsense", cwd=workdir)
    assert r.returncode == 64
    r = run_cli("inverse", "missing.json", cwd=workdir)
    assert r.returncode == 64 and "Traceback" not in r.stderr


def test_inverse_too_few_x_nodes_exits_64(workdir):
    # five x nodes is the contract's floor; refused before any row solve
    r = run_cli("inverse", "ref.json", "--x-nodes", "1", "-o", "few", cwd=workdir)
    assert r.returncode == 64 and "Traceback" not in r.stderr
    assert "x_nodes=1" in r.stderr


def test_inverse_of_eleven_pairs_exits_64(workdir):
    # validation's tail fit needs twelve pairs; eleven are refused by name
    (workdir / "eleven.json").write_text(example6_data(11).to_json())
    r = run_cli("inverse", "eleven.json", "-o", "eleven", cwd=workdir)
    assert r.returncode == 64 and "Traceback" not in r.stderr
    assert "validation needs at least 12 data points, got 11" in r.stderr


def test_roundtrip_empty_trim_exits_64(workdir):
    # an empty comparison window is refused before the forward solve
    r = run_cli("roundtrip", "q.csv", "--beta", "1.0", "--trim", "2", "1", "-o", "rt0",
                cwd=workdir)
    assert r.returncode == 64 and "Traceback" not in r.stderr
    assert "trim" in r.stderr


def test_malformed_spectral_json_exits_64_without_traceback(workdir):
    (workdir / "cut.json").write_text(MALFORMED_JSON["cut-off"][0])
    r = run_cli("validate", "cut.json", cwd=workdir)
    assert r.returncode == 64 and "Traceback" not in r.stderr
    assert r.stderr.startswith("invspec: usage error: spectral JSON is malformed")


@pytest.mark.parametrize("command", ["validate", "inverse"])
@pytest.mark.parametrize("case", sorted(MALFORMED_JSON))
def test_malformed_spectral_json_exits_64(workdir, case, command, capsys, monkeypatch):
    # both readers of spectral JSON refuse a malformed document or field as
    # a usage error that names it; run in process (main is what
    # python -m invspec calls), where an escaping exception fails the test
    text, match = MALFORMED_JSON[case]
    (workdir / f"malformed-{case}.json").write_text(text)
    monkeypatch.chdir(workdir)
    assert cli.main([command, f"malformed-{case}.json"]) == 64
    err = capsys.readouterr().err
    assert err.startswith("invspec: usage error: ")
    assert re.search(match, err)


@pytest.mark.parametrize("command", ["validate", "inverse", "forward", "roundtrip"])
def test_non_utf8_input_exits_64(workdir, command):
    # a file that is not UTF-8 text is a usage error naming the file, for the
    # spectral JSON readers and the potential CSV readers alike
    name = f"latin-{command}.in"
    (workdir / name).write_bytes(b"\xff\xfex,value\n")
    beta = ["--beta", "1"] if command in ("forward", "roundtrip") else []
    r = run_cli(command, name, *beta, cwd=workdir)
    assert r.returncode == 64 and "Traceback" not in r.stderr
    assert r.stderr.startswith(f"invspec: usage error: {name}: not UTF-8 text")


def test_malformed_potential_csv_exits_64(workdir):
    (workdir / "uneven.csv").write_text(MALFORMED_CSV["non-uniform"][0])
    r = run_cli("forward", "uneven.csv", "--beta", "1", cwd=workdir)
    assert r.returncode == 64 and "Traceback" not in r.stderr
    assert r.stderr.startswith("invspec: usage error: ")


def test_forward_overflow_near_pi_exits_1(workdir):
    # at beta = pi - 5e-3 the ground state's norming constant overflows: a
    # numerical failure that names the eigenvalue, not a usage error
    r = run_cli("forward", "q.csv", "--beta", "3.1366", "-N", "16", "-o", "fw_pi", cwd=workdir)
    assert r.returncode == 1 and "Traceback" not in r.stderr
    assert "numerical failure: eigenvalue 0" in r.stderr


def test_forward_overflow_near_pi_prints_one_line(workdir):
    # the overflow is refused where it happens, so numpy's warnings stay
    # silent and the refusal is the only line on stderr
    r = run_cli("forward", "q.csv", "--beta", "3.1366", "-N", "16", "-o", "fw_pi_line", cwd=workdir)
    assert r.returncode == 1
    (line,) = r.stderr.splitlines()
    assert line.startswith("invspec: numerical failure: eigenvalue 0: the norming constant overflows "
                           "double precision; mu=-40118.135")


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_cli_option_contract():
    # each subcommand takes exactly the options its handler reads; a removed
    # knob must not come back unnoticed
    inverse = {("-o", "--out"), ("--x-nodes",), ("--force",), ("--json-logs",)}
    beta = {("--beta",), ("--beta-deg",)}
    expected = {
        "forward": beta | {("-o", "--out"), ("-N", "--n-eigen"), ("--json-logs",)},
        "inverse": inverse,
        "roundtrip": inverse | beta | {("-N", "--n-eigen"), ("--trim",)},
        "example6": {("-o", "--out"), ("--x-nodes",), ("--force",)},
        "validate": {("--force",)},
    }
    subs = _subparsers(cli._build_parser())
    assert set(subs) == set(expected)
    for name, sp in subs.items():
        options = {tuple(a.option_strings) for a in sp._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)}
        assert options == expected[name], name
    counts = {name: len(options) for name, options in expected.items()}
    assert counts == {"forward": 5, "inverse": 4, "roundtrip": 8, "example6": 3, "validate": 1}
    assert sum(counts.values()) == 21
    removed = {
        "forward": ["forward", "q.csv", "--beta", "1", "--quad", "64"],
        "inverse": ["inverse", "ref.json", "--n-terms", "800"],
        "roundtrip": ["roundtrip", "q.csv", "--beta", "1", "--n-terms", "800"],
        "example6": ["example6", "-N", "40"],
        "validate": ["validate", "ref.json", "-o", "out"],
    }
    for argv in [*removed.values(), ["inverse", "ref.json", "--no-accelerate"],
                 ["inverse", "ref.json", "--smoothing", "0.1"], ["inverse", "ref.json", "--quad", "96"],
                 ["roundtrip", "q.csv", "--beta", "1", "--quad", "96"], ["example6", "--quad", "96"]]:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 64, argv


def test_forward_then_validate_then_inverse(workdir, forward_out, inverse_out):
    doc = json.loads(forward_out.read_text())
    assert doc["count"] == 16 and len(doc["mu"]) == 16
    assert doc["config"]["command"] == "forward"
    # options forward does not take read null; the series length is no option
    assert doc["config"]["x_nodes"] is None and doc["config"]["force"] is None
    assert "n_terms" not in doc["config"] and "n_quad" not in doc["config"]

    r = run_cli("validate", "fw/spectral.json", cwd=workdir)
    assert r.returncode == 0
    assert "overall: pass" in r.stdout

    rep = json.loads((inverse_out / "report.json").read_text())
    for key in ("beta_tilde", "cot_beta_tilde", "spread", "angle_identity_gap",
                "diagonal_residual_max", "parseval_defect", "gram_offdiag_max",
                "condition_max", "branch", "c_fit", "config"):
        assert key in rep
    # validation carries the whole tail fit the kernel read, as plain floats
    for key in ("c_fit", "kappa", "gamma", "spread"):
        assert type(rep["validation"][key]) is float
    assert rep["validation"]["c_fit"] == rep["c_fit"]
    assert rep["branch"] == "regular"
    assert rep["config"]["n_eigen"] is None and rep["config"]["trim"] is None
    assert rep["config"]["x_nodes"] == 129
    assert "n_terms" not in rep["config"] and "n_quad" not in rep["config"]
    assert (inverse_out / "q_recovered.csv").exists()


def test_inverse_then_forward_consistency(workdir, forward_out, inverse_out):
    # spectra of the recovered (q, angle) reproduce the input eigenvalues;
    # tight on the reference data (its tail model is exact), looser on the
    # truncated forward data where the tail model carries genuine error
    from invspec.core import read_potential_csv
    from invspec.forward import eigenvalues

    r = run_cli("inverse", "ref.json", "-o", "invref", cwd=workdir)
    assert r.returncode == 0, r.stderr
    rep = json.loads((workdir / "invref" / "report.json").read_text())
    q_hat = read_potential_csv(workdir / "invref" / "q_recovered.csv")
    mus = eigenvalues(q_hat, rep["beta_tilde"], 8)
    assert np.max(np.abs(mus - (np.arange(8) + 0.5) ** 2)) < 1e-4

    rep = json.loads((inverse_out / "report.json").read_text())
    q_hat = read_potential_csv(inverse_out / "q_recovered.csv")
    mus = eigenvalues(q_hat, rep["beta_tilde"], 8)
    doc = json.loads(forward_out.read_text())
    assert np.max(np.abs(mus - np.asarray(doc["mu"][:8]))) < 2e-3


def test_inverse_constant_potential(workdir):
    # exact data of q = 3: the drift shift applied is 3, and it comes back in q
    from invspec.asymptotics import unperturbed_spectrum
    from invspec.core import read_potential_csv

    sp = unperturbed_spectrum(PI / 3, 64)
    (workdir / "const3.json").write_text(SpectralData(sp.beta, sp.mu + 3.0, sp.norming).to_json())
    r = run_cli("inverse", "const3.json", "-o", "inv3", cwd=workdir)
    assert r.returncode == 0, r.stderr
    rep = json.loads((workdir / "inv3" / "report.json").read_text())
    assert rep["c_fit"] == pytest.approx(3.0, abs=1e-9)
    q_hat = read_potential_csv(workdir / "inv3" / "q_recovered.csv")
    keep = q_hat.grid.nodes >= 0.05
    assert np.max(np.abs(q_hat.values[keep] - 3.0)) <= 1e-8


def test_validate_bad_data_exits_2(workdir):
    r = run_cli("validate", "bad.json", cwd=workdir)
    assert r.returncode == 2
    assert "FAIL" in r.stdout


def test_inverse_bad_data_blocked_unless_forced(workdir):
    r = run_cli("inverse", "bad.json", "-o", "blocked", cwd=workdir)
    assert r.returncode == 2
    assert "validation failure: inadmissible spectral data: norming-constants-positive" in r.stderr
    assert not (workdir / "blocked" / "q_recovered.csv").exists()


@pytest.mark.parametrize("index", [3, 0, 10])
def test_inverse_force_refuses_non_positive_data(workdir, index):
    # --force passes validate's hard failures, but not data whose
    # Gelfand-Levitan operator is not positive: exit 2, naming x, no output
    doc = json.loads(COS_DATA.read_text())
    doc["a"][index] = -doc["a"][index]
    (workdir / f"neg{index}.json").write_text(json.dumps(doc))
    r = run_cli("inverse", f"neg{index}.json", "--force", "-o", f"neg{index}", cwd=workdir)
    assert r.returncode == 2 and "Traceback" not in r.stderr and "Warning" not in r.stderr
    assert re.search(r"validation failure: data not positive: .* at x=\d\.\d{4}", r.stderr)
    assert not (workdir / f"neg{index}" / "q_recovered.csv").exists()


def test_example6_command(workdir):
    r = run_cli("example6", "-o", "ex6", cwd=workdir)
    assert r.returncode == 0, r.stderr
    assert r.stdout.count("PASS") == 4
    elapsed = [line for line in r.stdout.splitlines() if line.startswith("elapsed:")]
    assert len(elapsed) == 1
    assert float(elapsed[0].split()[1]) > 0.0
    doc = json.loads((workdir / "ex6" / "example6.json").read_text())
    assert doc["all_pass"]


def test_roundtrip_command(workdir):
    r = run_cli("roundtrip", "q.csv", "--beta-deg", "60", "-N", "16", "-o", "rt", "--json-logs",
                "--trim", repr(0.1 * PI), repr(0.95 * PI), cwd=workdir)
    assert r.returncode == 0, r.stderr
    doc = json.loads((workdir / "rt" / "roundtrip.json").read_text())
    assert doc["q_sup_error"] < 5e-2
    assert (workdir / "rt" / "compare.csv").exists()
    header = (workdir / "rt" / "compare.csv").read_text().splitlines()[0]
    assert header == "x,q,q_hat"
    assert '"event"' in r.stderr  # json logs requested


def test_deterministic_outputs(workdir, forward_out):
    for d in ("det1", "det2"):
        r = run_cli("inverse", "fw/spectral.json", "-o", d, cwd=workdir)
        assert r.returncode == 0
    csv1 = (workdir / "det1" / "q_recovered.csv").read_bytes()
    csv2 = (workdir / "det2" / "q_recovered.csv").read_bytes()
    assert csv1 == csv2
    r1 = json.loads((workdir / "det1" / "report.json").read_text())
    r2 = json.loads((workdir / "det2" / "report.json").read_text())
    r1["config"].pop("out_dir")
    r2["config"].pop("out_dir")
    assert r1 == r2
