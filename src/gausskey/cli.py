"""Command-line front end.

Subcommands: ``validate``, ``region``, ``limit``, ``kkt-check``, ``enhance``,
``oracle``, ``mc``.  Models are JSON files (see ``modelio``); ``region``
writes a ``rp,rk`` CSV at full double precision plus a JSON sidecar with the
per-point solver metadata (with each aligned solve's ``stats``) and the
infinite-communication limit.  Values are stored in nats by default (``--units
bits`` rescales the CSV); human-readable summaries always show both.

Exit codes: 0 success, 2 validation or input error, 3 solver or
certification failure.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import kkt, mc, oracle, solver
from .errors import CertificateError, GausskeyError, ModelValidationError, SolverError
from .modelio import load_model, model_digest
from .models import GeneralModel, to_aligned, to_general
from .rates import asymptotic_limit, rates_general

LN2 = math.log(2.0)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


@dataclass
class RunConfig:
    """Parsed invocation: one command plus its numeric options."""

    command: str
    model_path: str
    output_path: str | None = None
    rp: float | None = None
    rp_max: float = 5.0
    points: int = 50
    resolution: int = 200
    density: int = 60
    samples: int = 100000
    seed: int = 0
    q_scale: float = 0.5
    tolerance: float = 1e-6
    units: str = "nats"

    def __post_init__(self):
        if self.command == "region":
            if not 0.0 < self.rp_max < math.inf:
                raise ValueError("--rp-max must be finite and positive")
            if self.points < 2:
                raise ValueError("--points must be at least 2")
            if self.resolution < 2:
                raise ValueError("--resolution must be at least 2")
            if self.output_path is None:
                raise ValueError("region requires --output")
        if self.units not in ("nats", "bits"):
            raise ValueError("--units must be 'nats' or 'bits'")
        if not self.tolerance > 0.0:
            raise ValueError("--tolerance must be positive")


def _fmt(x):
    return f"{x:.17g}"


def _both_units(nats):
    return f"{nats:.6f} nats ({nats / LN2:.6f} bits)"


def _cmd_validate(cfg, out):
    model = load_model(cfg.model_path)
    if isinstance(model, GeneralModel):
        kind = "general"
        dims = f"mx={model.mx} my={model.my} mz={model.mz}"
    else:
        kind = "aligned"
        dims = f"m={model.mx}"
    out.write(f"valid {kind} model ({dims})\n")
    out.write(f"digest: {model_digest(model)}\n")
    out.write(f"key-rate limit: {_both_units(asymptotic_limit(model))}\n")
    return EXIT_OK


def _compute_boundary(cfg, model):
    rp_grid = list(np.linspace(0.0, cfg.rp_max, cfg.points))
    return solver._boundary(model, rp_grid, st_resolution=cfg.resolution)


def _cmd_region(cfg, out):
    model = load_model(cfg.model_path)
    boundary = _compute_boundary(cfg, model)
    scale = 1.0 if cfg.units == "nats" else 1.0 / LN2
    with open(cfg.output_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("rp,rk\n")
        for p in boundary.points:
            fh.write(f"{_fmt(p.rp * scale)},{_fmt(p.rk * scale)}\n")
    sidecar = os.path.splitext(cfg.output_path)[0] + ".meta.json"
    meta = {
        "model_digest": boundary.model_digest,
        "units": cfg.units,
        "asymptotic_limit_nats": asymptotic_limit(model),
        "points": [
            {
                "rp": p.rp,
                "rk": p.rk,
                "s": pm.s,
                "t": pm.t,
                "kkt_residual": pm.kkt_residual,
                **({} if pm.stats is None else {"stats": pm.stats}),
            }
            for p, pm in zip(boundary.points, boundary.solver_meta)
        ],
    }
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    last = boundary.points[-1]
    out.write(
        f"wrote {len(boundary.points)} points to {cfg.output_path} "
        f"(meta: {sidecar})\n"
    )
    out.write(f"final point: rp={_both_units(last.rp)}, rk={_both_units(last.rk)}\n")
    return EXIT_OK


def _cmd_limit(cfg, out):
    model = load_model(cfg.model_path)
    out.write(_both_units(asymptotic_limit(model)) + "\n")
    return EXIT_OK


def _certified_point(cfg, model):
    aligned = to_aligned(model)
    if cfg.rp is None:
        raise ValueError("this command requires --rp")
    report = solver.solve_at_rate(aligned, cfg.rp)
    cert = kkt.certify(aligned, report.optimum, cfg.rp)
    return aligned, report, cert


def _cmd_kkt_check(cfg, out):
    model = load_model(cfg.model_path)
    _, report, cert = _certified_point(cfg, model)
    payload = kkt.certificate_to_json(cert)
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        out.write(payload + "\n")
    out.write(f"key rate at rp={cfg.rp:g}: {_both_units(report.value)}\n")
    for name in kkt.RESIDUAL_KEYS:
        out.write(f"  {name}: {cert.residuals[name]:.3e}\n")
    out.write(f"max residual: {cert.max_residual:.3e}\n")
    if not cert.max_residual < cfg.tolerance:
        out.write(f"certificate FAILED at tolerance {cfg.tolerance:g}\n")
        return EXIT_SOLVER
    out.write(f"certificate passed at tolerance {cfg.tolerance:g}\n")
    return EXIT_OK


def _cmd_enhance(cfg, out):
    model = load_model(cfg.model_path)
    _, _, cert = _certified_point(cfg, model)
    payload = {
        "rp": cert.rp,
        "mu": cert.mu,
        "m_matrix": np.asarray(cert.m_matrix).tolist(),
        "wy_tilde": np.asarray(cert.wy_tilde).tolist(),
        "sigma_star": cert.sigma_star.value.tolist(),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        out.write(text + "\n")
    out.write(f"mu: {cert.mu:.12g}\n")
    return EXIT_OK


def _cmd_oracle(cfg, out):
    model = load_model(cfg.model_path)
    if cfg.rp is None:
        raise ValueError("oracle requires --rp")
    pair = oracle.brute_force_grid(model, cfg.rp, grid_density=cfg.density)
    out.write(f"rp={_fmt(pair.rp)} rk={_fmt(pair.rk)}\n")
    out.write(f"rk: {_both_units(pair.rk)}\n")
    return EXIT_OK


def _cmd_mc(cfg, out):
    model = to_general(load_model(cfg.model_path))
    q = cfg.q_scale * model.sigma_x
    rp_est, rk_est = mc.cross_validate(model, q, cfg.samples, cfg.seed)
    analytic = rates_general(model, q)
    out.write(
        f"rp estimate: {rp_est.value:.6f} +/- {rp_est.std_error:.6f} nats "
        f"(analytic {analytic.rp:.6f})\n"
    )
    out.write(
        f"rk estimate: {rk_est.value:.6f} +/- {rk_est.std_error:.6f} nats "
        f"(analytic {analytic.rk:.6f})\n"
    )
    return EXIT_OK


_HANDLERS = {
    "validate": _cmd_validate,
    "region": _cmd_region,
    "limit": _cmd_limit,
    "kkt-check": _cmd_kkt_check,
    "enhance": _cmd_enhance,
    "oracle": _cmd_oracle,
    "mc": _cmd_mc,
}


def run(cfg: RunConfig, out=None) -> int:
    """Execute one parsed command; returns the process exit code."""
    out = out if out is not None else sys.stdout
    handler = _HANDLERS[cfg.command]
    try:
        return handler(cfg, out)
    except (FileNotFoundError, ModelValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SolverError, CertificateError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except GausskeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gausskey",
        description=(
            "Compute and certify secret-key / public-communication rate "
            "trade-offs for correlated vector Gaussian sources."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        # an option left out sets no attribute: RunConfig holds the defaults
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("model", help="path to a model JSON file")
        return p

    add("validate", "check a model file and print its summary")

    p = add("region", "compute the R_k(R_p) boundary and write a CSV")
    p.add_argument("-o", "--output", required=True, help="output CSV path")
    p.add_argument("--rp-max", type=float,
                   help="largest public rate on the grid (nats)")
    p.add_argument("--points", type=int, help="number of grid points")
    p.add_argument("--resolution", type=int,
                   help="number of t rows that bracket the sweep's search")
    p.add_argument("--units", choices=("nats", "bits"), help="units of the CSV values")

    add("limit", "print the infinite-communication key-rate limit")

    p = add("kkt-check", "solve at one rate and emit a KKT certificate")
    p.add_argument("--rp", type=float, required=True, help="public rate (nats)")
    p.add_argument("-o", "--output", default=None, help="certificate JSON path")
    p.add_argument("--tolerance", type=float,
                   help="max-residual gate for the certificate")

    p = add("enhance", "emit the enhanced noise covariance at one rate")
    p.add_argument("--rp", type=float, required=True, help="public rate (nats)")
    p.add_argument("-o", "--output", default=None, help="output JSON path")

    p = add("oracle", "brute-force boundary value at one rate (mx <= 2)")
    p.add_argument("--rp", type=float, required=True, help="public rate (nats)")
    p.add_argument("--density", type=int, help="grid points per axis")

    p = add("mc", "Monte-Carlo cross-check of the rate functionals")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, help="seed of the Monte-Carlo draws")
    p.add_argument("--q-scale", type=float,
                   help="conditional covariance as a multiple of sigma_x")
    return parser


def _config_from_args(args) -> RunConfig:
    # an option the subcommand does not define, or that was left out,
    # keeps its RunConfig default
    opts = {f.name: getattr(args, f.name) for f in fields(RunConfig)
            if f.name != "command" and hasattr(args, f.name)}
    return RunConfig(command=args.command, model_path=args.model,
                     output_path=getattr(args, "output", None), **opts)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
