#!/usr/bin/env python3
"""Run the bundled closed-form example end to end and dump the recovered
potential next to its exact expression for external plotting.

    python3 scripts/reference_demo.py -o demo_out/
"""
import argparse
import json
import sys
from pathlib import Path

from invspec.core import write_csv, write_grid_function_csv
from invspec.roundtrip import example6_oracle, example6_q, inverse_pipeline, example6_data


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("-o", "--out", default="demo_out")
    p.add_argument("--count", type=int, default=40, help="data prefix length")
    args = p.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    report = example6_oracle(count=args.count)
    for ch in report["checks"]:
        mark = "PASS" if ch["pass"] else "FAIL"
        print(f"{mark}  {ch['name']}: error {ch['error']:.3e} (tol {ch['tol']:.0e})")
    (out / "oracle.json").write_text(json.dumps(report, sort_keys=True, indent=2))

    inv = inverse_pipeline(example6_data(args.count))
    write_grid_function_csv(inv.q_hat, out / "q_recovered.csv")
    xs = inv.field.x_nodes
    write_csv(out / "q_compare.csv", "x,q_exact,q_recovered", xs, example6_q(xs), inv.q_hat.values)
    print(f"wrote {out}/oracle.json, q_recovered.csv, q_compare.csv")
    return 0 if report["all_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
