"""Command-line front end.

Subcommands: ``forward`` (potential CSV -> spectral JSON), ``inverse``
(spectral JSON -> recovered potential CSV + report JSON), ``roundtrip``,
``example6`` (bundled closed-form oracle) and ``validate``.  Exit codes:
0 success, 1 numerical failure, 2 admissibility hard-fail (unless
``--force``), 64 usage errors (including a missing input file, fewer than
five ``--x-nodes`` and a ``--trim`` window holding no x node).
Identical configurations produce bit-identical outputs, and every JSON
artifact embeds its resolved configuration.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from .core import (
    PI,
    SpectralData,
    as_angle,
    read_potential_csv,
    write_grid_function_csv,
)
from .errors import (
    AdmissibilityError,
    ConfigError,
    DataConsistencyError,
    DomainError,
    NumericsError,
)

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_VALIDATION = 2
EXIT_USAGE = 64


@dataclass(frozen=True)
class Config:
    """Resolved run configuration, embedded in every JSON artifact."""

    command: str
    input_path: str | None
    out_dir: str
    beta: float | None
    n_eigen: int
    n_terms: int
    n_quad: int
    x_nodes: int
    trim: tuple[float, float]
    force: bool
    json_logs: bool

    def as_dict(self) -> dict:
        d = asdict(self)
        d["trim"] = list(self.trim)
        return d


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    p = _Parser(prog="invspec", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(sp, needs_beta=False):
        if needs_beta:
            g = sp.add_mutually_exclusive_group(required=True)
            g.add_argument("--beta", type=float, help="boundary angle in radians, in (0, pi)")
            g.add_argument("--beta-deg", type=float, help="boundary angle in degrees, in (0, 180)")
        sp.add_argument("-o", "--out", default=".", help="output directory (default: cwd)")
        sp.add_argument("-N", "--n-eigen", type=int, default=64, help="number of eigenvalues")
        sp.add_argument("--n-terms", type=int, default=2000, help="kernel series truncation")
        sp.add_argument("--quad", type=int, default=96, help="Gauss nodes per integral-equation row")
        sp.add_argument("--x-nodes", type=int, default=129, help="uniform x nodes for the kernel diagonal")
        sp.add_argument("--trim", type=float, nargs=2, default=(0.05, PI),
                        metavar=("LO", "HI"), help="comparison interval for round trips")
        sp.add_argument("--force", action="store_true",
                        help="proceed past admissibility hard-failures")
        sp.add_argument("--json-logs", action="store_true",
                        help="machine-readable progress lines on stderr")

    sp = sub.add_parser("forward", help="spectrum + norming constants of (q, beta)")
    sp.add_argument("potential", help="potential CSV (header x,value, uniform grid over [0,pi])")
    add_common(sp, needs_beta=True)

    sp = sub.add_parser("inverse", help="recover (q, angle) from spectral JSON")
    sp.add_argument("data", help="spectral JSON ({beta, count, mu, a, c_fit})")
    add_common(sp)

    sp = sub.add_parser("roundtrip", help="forward then inverse, with error metrics")
    sp.add_argument("potential", help="potential CSV")
    add_common(sp, needs_beta=True)

    sp = sub.add_parser("example6", help="run the bundled closed-form example oracle")
    add_common(sp)

    sp = sub.add_parser("validate", help="admissibility report for spectral JSON")
    sp.add_argument("data", help="spectral JSON")
    add_common(sp)
    return p


def _resolve_config(args) -> Config:
    beta = None
    if getattr(args, "beta", None) is not None:
        beta = float(args.beta)
    elif getattr(args, "beta_deg", None) is not None:
        beta = float(args.beta_deg) * PI / 180.0
    input_path = getattr(args, "potential", None) or getattr(args, "data", None)
    return Config(
        command=args.command,
        input_path=input_path,
        out_dir=args.out,
        beta=beta,
        n_eigen=args.n_eigen,
        n_terms=args.n_terms,
        n_quad=args.quad,
        x_nodes=args.x_nodes,
        trim=(float(args.trim[0]), float(args.trim[1])),
        force=args.force,
        json_logs=args.json_logs,
    )


def _log(cfg: Config, event: str, **detail):
    if cfg.json_logs:
        print(json.dumps({"event": event, **detail}, sort_keys=True), file=sys.stderr)


def _write_json(path: Path, doc: dict, cfg: Config) -> None:
    doc = dict(doc)
    doc["config"] = cfg.as_dict()
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _inverse_params(cfg: Config):
    from .roundtrip import InverseParams
    return InverseParams(n_terms=cfg.n_terms, n_quad=cfg.n_quad, x_nodes=cfg.x_nodes,
                         force=cfg.force)


def _cmd_forward(cfg: Config) -> int:
    from .forward import forward_solve
    q = read_potential_csv(cfg.input_path)
    beta = as_angle(cfg.beta)
    _log(cfg, "forward-start", n_eigen=cfg.n_eigen, beta=beta.beta)
    t0 = time.time()
    solution = forward_solve(q, beta, cfg.n_eigen)
    data = solution.spectral_data()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = data.to_json_dict()
    _write_json(out / "spectral.json", doc, cfg)
    _log(cfg, "forward-done", elapsed_s=time.time() - t0, path=str(out / "spectral.json"))
    print(f"wrote {out / 'spectral.json'} ({cfg.n_eigen} eigenvalues)")
    return EXIT_OK


def _cmd_validate(cfg: Config) -> int:
    from .inverse import validate
    data = SpectralData.from_json(Path(cfg.input_path).read_text())
    report = validate(data, data.beta)
    for ch in report["checks"]:
        mark = {"pass": "PASS", "warn": "WARN", "fail": "FAIL"}[ch["status"]]
        detail = f"  ({ch['detail']})" if ch["detail"] else ""
        print(f"{mark}  {ch['name']}{detail}")
    print(f"overall: {report['status']}")
    if report["hard_fail"] and not cfg.force:
        return EXIT_VALIDATION
    return EXIT_OK


def _cmd_inverse(cfg: Config) -> int:
    from .roundtrip import inverse_pipeline
    data = SpectralData.from_json(Path(cfg.input_path).read_text())
    _log(cfg, "inverse-start", count=data.count, beta=data.beta)
    t0 = time.time()
    inv = inverse_pipeline(data, _inverse_params(cfg))
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_grid_function_csv(inv.q_hat, out / "q_recovered.csv")
    report = {
        "beta_tilde": inv.beta_rec.beta_tilde,
        "cot_beta_tilde": inv.beta_rec.cot_beta_tilde,
        "spread": inv.beta_rec.spread,
        "angle_identity_gap": inv.beta_rec.prediction_gap,
        "diagonal_residual_max": inv.consistency["diagonal_residual_max"],
        "parseval_defect": inv.consistency["parseval_defect"],
        "gram_offdiag_max": inv.consistency["gram_offdiag_max"],
        "condition_max": inv.consistency["condition_max"],
        "branch": inv.consistency["branch"],
        "validation": inv.validation,
    }
    _write_json(out / "report.json", report, cfg)
    _log(cfg, "inverse-done", elapsed_s=time.time() - t0)
    print(f"wrote {out / 'q_recovered.csv'} and {out / 'report.json'} "
          f"(branch: {report['branch']}, angle: {report['beta_tilde']:.6f})")
    return EXIT_OK


def _cmd_roundtrip(cfg: Config) -> int:
    from .roundtrip import roundtrip
    q = read_potential_csv(cfg.input_path)
    beta = as_angle(cfg.beta)
    _log(cfg, "roundtrip-start", n_eigen=cfg.n_eigen)
    report, inv = roundtrip(q, beta, cfg.n_eigen, trim=cfg.trim, params=_inverse_params(cfg))
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "roundtrip.json", report.to_dict(), cfg)
    from .core import interpolant
    xs = inv.field.x_nodes
    q_true = interpolant(q)(xs)
    with open(out / "compare.csv", "w") as fh:
        fh.write("x,q,q_hat\n")
        for x, qa, qb in zip(xs, q_true, inv.q_hat.values):
            fh.write(f"{x:.17g},{qa:.17g},{qb:.17g}\n")
    print(f"wrote {out / 'roundtrip.json'} (sup error {report.q_sup_error:.3e}, "
          f"identity gap {report.angle_identity_gap:.3e})")
    return EXIT_OK


def _cmd_example6(cfg: Config) -> int:
    from .roundtrip import example6_oracle
    report = example6_oracle(_inverse_params(cfg))
    for ch in report["checks"]:
        mark = "PASS" if ch["pass"] else "FAIL"
        print(f"{mark}  {ch['name']}: error {ch['error']:.3e} (tol {ch['tol']:.0e})")
    print(f"elapsed: {report['elapsed_s']:.1f} s")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "example6.json", report, cfg)
    return EXIT_OK if report["all_pass"] else EXIT_NUMERICAL


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = _resolve_config(args)
    handlers = {
        "forward": _cmd_forward,
        "inverse": _cmd_inverse,
        "roundtrip": _cmd_roundtrip,
        "example6": _cmd_example6,
        "validate": _cmd_validate,
    }
    if cfg.input_path is not None and not Path(cfg.input_path).is_file():
        print(f"invspec: usage error: no such input file: {cfg.input_path}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        return handlers[cfg.command](cfg)
    except (ConfigError, DomainError) as exc:
        print(f"invspec: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AdmissibilityError as exc:
        print(f"invspec: validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericsError, DataConsistencyError) as exc:
        print(f"invspec: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
