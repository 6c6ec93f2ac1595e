"""Regenerate the stored spectral data of the ``inverse`` workload.

The inverse workload reads the spectral data of q = cos x at beta = pi/3,
N = 64 from ``perfbench/data/cos_beta60_n64.json`` instead of solving the
forward problem on every run, so a change to ``invspec.forward`` leaves the
inverse inputs unchanged.  Regenerate the file, from the repository root, with

    python3 perfbench/make_inputs.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA_FILE = HERE / "data" / "cos_beta60_n64.json"
N_EIGEN = 64


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    import numpy as np
    import invspec

    beta = np.pi / 3.0
    solution = invspec.forward_solve(invspec.sample_potential(np.cos), beta, N_EIGEN)
    data = solution.spectral_data()
    record = {
        "source": f"invspec {invspec.__version__}: forward_solve(sample_potential(np.cos), "
                  f"pi/3, {N_EIGEN}).spectral_data()",
        "beta": float(data.beta),
        "mu": [float(v) for v in data.mu],
        "a": [float(v) for v in data.norming],
        "c_fit": float(data.c_fit),
    }
    DATA_FILE.parent.mkdir(exist_ok=True)
    DATA_FILE.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {DATA_FILE.relative_to(HERE.parent)}")


if __name__ == "__main__":
    main()
