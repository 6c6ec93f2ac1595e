"""Command-line front end.

Subcommands: ``forward`` (potential CSV -> spectral JSON), ``inverse``
(spectral JSON -> recovered potential CSV + report JSON), ``roundtrip``,
``example6`` (bundled closed-form oracle) and ``validate``.  Exit codes:
0 success, 1 numerical failure, 2 admissibility hard-fail (unless
``--force``) or data whose Gelfand-Levitan operator is not positive (also
under ``--force``), 64 usage errors (including a missing input file, a
malformed potential CSV or spectral JSON, an input file that is not UTF-8
text, an option the subcommand does not take, fewer than five ``--x-nodes``
and a ``--trim`` window holding no x node).  Each subcommand takes only the
options its handler reads; the kernel series length is derived from the
data count.
Identical configurations produce bit-identical outputs, and every JSON
artifact embeds its resolved configuration, with null for the options its
subcommand does not take.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .core import (
    PI,
    SpectralData,
    as_angle,
    interpolant,
    read_potential_csv,
    read_text,
    write_csv,
    write_grid_function_csv,
)
from .errors import (
    AdmissibilityError,
    ConfigError,
    DataConsistencyError,
    DomainError,
    NumericsError,
)
from .forward import forward_solve
from .inverse import DEFAULT_X_NODES, validate
from .roundtrip import DEFAULT_TRIM, example6_oracle, inverse_pipeline, roundtrip

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_VALIDATION = 2
EXIT_USAGE = 64


@dataclass(frozen=True)
class Config:
    """Resolved run configuration, embedded in every JSON artifact.  A field
    whose option the subcommand does not take is None."""

    command: str
    input_path: str | None
    out_dir: str | None
    beta: float | None
    n_eigen: int | None
    x_nodes: int | None
    trim: tuple[float, float] | None
    force: bool | None
    json_logs: bool | None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# Options by the Config field they set, in help order.
_OPTIONS = {
    "out_dir": (("-o", "--out"), dict(default=".", metavar="OUT",
                                      help="output directory (default: cwd)")),
    "n_eigen": (("-N", "--n-eigen"), dict(type=int, default=64, help="number of eigenvalues")),
    "x_nodes": (("--x-nodes",), dict(type=int, default=DEFAULT_X_NODES,
                                     help="uniform x nodes on which the main equation is solved")),
    "trim": (("--trim",), dict(type=float, nargs=2, default=DEFAULT_TRIM, metavar=("LO", "HI"),
                               help="comparison interval for round trips")),
    "force": (("--force",), dict(action="store_true",
                                 help="proceed past validation's hard failures (data "
                                      "that are not positive are still refused)")),
    "json_logs": (("--json-logs",), dict(action="store_true",
                                         help="machine-readable progress lines on stderr")),
}
def _build_parser() -> _Parser:
    p = _Parser(prog="invspec", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (_, help_text, input_file, options) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        if input_file is not None:
            sp.add_argument("input_path", metavar=input_file[0], help=input_file[1])
        if "beta" in options:
            g = sp.add_mutually_exclusive_group(required=True)
            g.add_argument("--beta", type=float, help="boundary angle in radians, in (0, pi)")
            g.add_argument("--beta-deg", type=float, help="boundary angle in degrees, in (0, 180)")
        for field, (flags, kwargs) in _OPTIONS.items():
            if field in options:
                sp.add_argument(*flags, dest=field, **kwargs)
    return p


def _resolve_config(args) -> Config:
    opts = {f.name: getattr(args, f.name, None) for f in fields(Config)}
    if getattr(args, "beta_deg", None) is not None:
        opts["beta"] = args.beta_deg * PI / 180.0
    if opts["trim"] is not None:
        opts["trim"] = (float(opts["trim"][0]), float(opts["trim"][1]))
    return Config(**opts)


def _log(cfg: Config, event: str, **detail):
    if cfg.json_logs:
        print(json.dumps({"event": event, **detail}, sort_keys=True), file=sys.stderr)


def _out_dir(cfg: Config) -> Path:
    """The output directory, created with its parents if missing."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, doc: dict, cfg: Config) -> None:
    doc = dict(doc)
    doc["config"] = asdict(cfg)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _cmd_forward(cfg: Config) -> int:
    q = read_potential_csv(cfg.input_path)
    beta = as_angle(cfg.beta)
    _log(cfg, "forward-start", n_eigen=cfg.n_eigen, beta=beta.beta)
    t0 = time.perf_counter()
    data = forward_solve(q, beta, cfg.n_eigen).spectral_data()
    out = _out_dir(cfg)
    _write_json(out / "spectral.json", data.to_json_dict(), cfg)
    _log(cfg, "forward-done", elapsed_s=time.perf_counter() - t0, path=str(out / "spectral.json"))
    print(f"wrote {out / 'spectral.json'} ({cfg.n_eigen} eigenvalues)")
    return EXIT_OK


def _cmd_validate(cfg: Config) -> int:
    data = SpectralData.from_json(read_text(cfg.input_path))
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
    data = SpectralData.from_json(read_text(cfg.input_path))
    _log(cfg, "inverse-start", count=data.count, beta=data.beta)
    t0 = time.perf_counter()
    inv = inverse_pipeline(data, x_nodes=cfg.x_nodes, force=cfg.force)
    out = _out_dir(cfg)
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
        "c_fit": inv.data.c_fit,
        "validation": inv.validation,
    }
    _write_json(out / "report.json", report, cfg)
    _log(cfg, "inverse-done", elapsed_s=time.perf_counter() - t0)
    print(f"wrote {out / 'q_recovered.csv'} and {out / 'report.json'} "
          f"(branch: {report['branch']}, angle: {report['beta_tilde']:.6f})")
    return EXIT_OK


def _cmd_roundtrip(cfg: Config) -> int:
    q = read_potential_csv(cfg.input_path)
    beta = as_angle(cfg.beta)
    _log(cfg, "roundtrip-start", n_eigen=cfg.n_eigen)
    report, inv = roundtrip(q, beta, cfg.n_eigen, trim=cfg.trim,
                            x_nodes=cfg.x_nodes, force=cfg.force)
    out = _out_dir(cfg)
    _write_json(out / "roundtrip.json", report.to_dict(), cfg)
    xs = inv.field.x_nodes
    write_csv(out / "compare.csv", "x,q,q_hat", xs, interpolant(q)(xs), inv.q_hat.values)
    print(f"wrote {out / 'roundtrip.json'} (sup error {report.q_sup_error:.3e}, "
          f"identity gap {report.angle_identity_gap:.3e})")
    return EXIT_OK


def _cmd_example6(cfg: Config) -> int:
    report = example6_oracle(x_nodes=cfg.x_nodes, force=cfg.force)
    for ch in report["checks"]:
        mark = "PASS" if ch["pass"] else "FAIL"
        print(f"{mark}  {ch['name']}: error {ch['error']:.3e} (tol {ch['tol']:.0e})")
    print(f"elapsed: {report['elapsed_s']:.3f} s")
    out = _out_dir(cfg)
    _write_json(out / "example6.json", report, cfg)
    return EXIT_OK if report["all_pass"] else EXIT_NUMERICAL


_INVERSE_OPTIONS = ("out_dir", "x_nodes", "force", "json_logs")
# Each subcommand takes only the options its handler reads ("beta" stands for
# the required --beta | --beta-deg pair): (handler, help, input file (name,
# help) or None, options).
_COMMANDS = {
    "forward": (_cmd_forward, "spectrum + norming constants of (q, beta)",
                ("potential", "potential CSV (header x,value, uniform grid over [0,pi])"),
                ("beta", "out_dir", "n_eigen", "json_logs")),
    "inverse": (_cmd_inverse, "recover (q, angle) from spectral JSON",
                ("data", "spectral JSON ({beta, count, mu, a, c_fit})"), _INVERSE_OPTIONS),
    "roundtrip": (_cmd_roundtrip, "forward then inverse, with error metrics",
                  ("potential", "potential CSV"), _INVERSE_OPTIONS + ("beta", "n_eigen", "trim")),
    "example6": (_cmd_example6, "run the bundled closed-form example oracle", None,
                 ("out_dir", "x_nodes", "force")),
    "validate": (_cmd_validate, "admissibility report for spectral JSON",
                 ("data", "spectral JSON"), ("force",)),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = _resolve_config(args)
    if cfg.input_path is not None and not Path(cfg.input_path).is_file():
        print(f"invspec: usage error: no such input file: {cfg.input_path}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[cfg.command][0](cfg)
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
