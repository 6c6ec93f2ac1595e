"""The scripts under scripts/ import the package API; loading each one and
asking for its help text catches a script left behind by an API change, and
one short sweep catches a script that calls removed API only when it runs."""
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["convergence_study", "reference_demo"])
def test_script_imports_and_prints_help(name, capsys):
    with pytest.raises(SystemExit) as exc:
        _load(name).main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_convergence_study_writes_csv(tmp_path):
    out = tmp_path / "study.csv"
    assert _load("convergence_study").main(["--n-eigen", "16", "-o", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    assert header == "n_eigen,x_nodes,q_sup_error,q_l1_error,angle_identity_gap,elapsed_s"
    assert len(rows) == 1
    n_eigen, x_nodes, sup, l1, gap, _ = rows[0].split(",")
    assert (n_eigen, x_nodes) == ("16", "129")
    assert 0.0 <= float(sup) < 5e-2 and 0.0 <= float(l1) and 0.0 <= float(gap) < 5e-3
