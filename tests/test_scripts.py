"""The scripts under scripts/ import the package API; loading each one and
asking for its help text catches a script left behind by an API change, and
one short run of each catches a script that calls removed API only when it runs.
The README's library sketch is run as written, for the same reason."""
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


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


def test_reference_demo_writes_its_files(tmp_path, capsys):
    assert _load("reference_demo").main(["-o", str(tmp_path)]) == 0
    for name in ("oracle.json", "q_recovered.csv", "q_compare.csv"):
        assert (tmp_path / name).is_file()
    assert (tmp_path / "q_compare.csv").read_text().splitlines()[0] == "x,q_exact,q_recovered"
    assert "wrote" in capsys.readouterr().out


def test_readme_library_sketch_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["phi"].shape == (64, 9)
    assert namespace["inv"].q_hat.grid.n == 129
