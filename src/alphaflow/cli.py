"""Command-line entry points.

One subcommand per verification activity: run, check, identities,
gronwall-selftest, calibrate-gamma, sweep-alpha, ode-demo.  Exit codes:
0 pass, 1 check failed, 2 usage, configuration or input-file error,
3 numerical blowup.
"""

from __future__ import annotations

import argparse
import datetime
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .abstract_ode import (
    apriori_bound,
    apriori_bound_holds,
    dissipative_margin,
    dry_friction_problem,
    integrate,
    linear_decay_problem,
    mollified_friction_exact,
    rotation_problem,
)
from .checkpoint import write_trajectory
from .config import parse_config, physics, physics_mismatch
from .dissipative import (
    DEFAULT_TOLERANCE,
    alpha_sweep,
    calibrate_gamma,
    inequality_margin,
)
from .errors import CheckpointError, ConfigurationError, ContractViolation, IntegrationBlowup
from .gronwall import selftest as gronwall_selftest
from .operators import TestPair, identity_suite
from .reporting import (
    fmt,
    write_check_report,
    write_json,
    write_ode_demo_csv,
    write_run_report,
    write_sweep_report,
)
from .solver import run
from .spectral import Grid

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3


@dataclass
class RunManifest:
    subcommand: str
    config_path: str | None
    out_dir: str
    seed: int | None
    version: str
    timestamp: str


def _prepare_out(args, subcommand: str) -> str:
    """Create the output directory and write the manifest.

    Commands call this once they hold results to write, so a command that
    fails leaves no output directory behind.
    """
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    manifest = RunManifest(
        subcommand=subcommand,
        config_path=getattr(args, "config", None),
        out_dir=os.path.abspath(outdir),
        seed=getattr(args, "seed", None),
        version=__version__,
        timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )
    write_json(os.path.join(outdir, "manifest.json"), asdict(manifest))
    return outdir


def _load_config(args):
    cfg = parse_config(args.config)
    if getattr(args, "seed", None) is not None:
        from dataclasses import replace

        cfg = replace(cfg, seed=args.seed)
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    trajectory = run(cfg)
    outdir = _prepare_out(args, "run")
    write_trajectory(trajectory, os.path.join(outdir, "trajectory.bin"))
    write_run_report(outdir, trajectory)
    return EXIT_PASS


def _check_same_physics(cfg, integrated) -> None:
    diffs = physics_mismatch(physics(cfg), physics(integrated))
    if diffs:
        raise ConfigurationError("--config disagrees with the trajectory file on " + diffs)


#: check mode -> tolerance when --tolerance is not given
_DEFAULT_TOLERANCE = {"zero-test": 1e-10, "self-test": DEFAULT_TOLERANCE,
                      "test-pair": DEFAULT_TOLERANCE}


def _cmd_check(args) -> int:
    if args.mode == "test-pair" and not args.test_pair:
        raise ConfigurationError("--test-pair FILE is required in this mode")
    cfg = _load_config(args)
    from .checkpoint import read_trajectory

    if args.mode == "test-pair":  # a bad file fails before any integration
        with open(args.test_pair, "r", encoding="utf-8") as handle:
            pair = TestPair.from_json(cfg.grid(), handle.read())
    if args.trajectory:
        trajectory = read_trajectory(args.trajectory)
        _check_same_physics(cfg, trajectory.config)
    else:
        trajectory = run(cfg)
    grid = trajectory.grid
    params = trajectory.config.params  # the system that was integrated
    mode = "euler-alpha" if params.mu == 0.0 else "maxwell"

    gamma = args.gamma
    if gamma is None:
        # the zero pair's weight is 0, so gamma cannot move its margins
        gamma = (1.0 if args.mode == "zero-test"
                 else calibrate_gamma(grid, samples=60, seed=cfg.seed))

    if args.mode == "zero-test":
        pair = TestPair.zero(grid)
    elif args.mode == "self-test":
        pair = TestPair.from_trajectory(trajectory, degree=args.fit_degree)
    tolerance = (_DEFAULT_TOLERANCE[args.mode] if args.tolerance is None
                 else args.tolerance)

    report = inequality_margin(trajectory, pair, params, gamma_const=gamma,
                               mode=mode, tolerance=tolerance)
    outdir = _prepare_out(args, "check")
    write_check_report(outdir, report, trajectory)
    sharpness = " ".join(f"{key}={'null' if value is None else fmt(value)}"
                         for key, value in report.sharpness().items())
    print(f"mode={args.mode} gamma={fmt(gamma)} min_margin={fmt(report.min_margin)} "
          f"{sharpness} pass={report.passed}")
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILED


def _cmd_identities(args) -> int:
    grid = Grid(args.dim, args.n)
    defects = identity_suite(grid, alpha=args.alpha, n_samples=args.samples,
                             seed=args.seed)
    ok = True
    for name, value in sorted(defects.items()):
        passed = value <= args.threshold
        ok = ok and passed
        print(f"{name}: max normalized defect {fmt(value)} "
              f"{'PASS' if passed else 'FAIL'}")
    return EXIT_PASS if ok else EXIT_CHECK_FAILED


def _cmd_gronwall_selftest(args) -> int:
    errors = gronwall_selftest(samples=args.samples, seed=args.seed)
    thresholds = {"constant": 1e-6, "exponential": 1e-6, "random": 1e-5}
    ok = True
    for case, err in sorted(errors.items()):
        passed = err <= thresholds[case]
        ok = ok and passed
        print(f"{case}: max relative error {fmt(err)} {'PASS' if passed else 'FAIL'}")
    return EXIT_PASS if ok else EXIT_CHECK_FAILED


def _cmd_calibrate_gamma(args) -> int:
    grid = Grid(args.dim, args.n)
    gamma = calibrate_gamma(grid, samples=args.samples, seed=args.seed,
                            safety_factor=args.safety_factor)
    print(fmt(gamma))
    if args.out:
        outdir = _prepare_out(args, "calibrate-gamma")
        write_json(os.path.join(outdir, "gamma.json"),
                   {"gamma": float(gamma), "samples": args.samples,
                    "seed": args.seed, "safety_factor": args.safety_factor})
    return EXIT_PASS


def _cmd_sweep_alpha(args) -> int:
    cfg = _load_config(args)
    try:
        alphas = [float(a) for a in args.alphas.split(",") if a]
    except ValueError as exc:
        raise ConfigurationError(f"--alphas must list numbers: {exc}") from None
    sweep = alpha_sweep(cfg, alphas, workers=args.workers)
    write_sweep_report(_prepare_out(args, "sweep-alpha"), sweep)
    for entry in sweep.entries:
        status = "blowup" if entry.blowup else ("PASS" if entry.bound_ok else "FAIL")
        print(f"alpha={fmt(entry.alpha)}: sup E={fmt(entry.sup_energy)} "
              f"E(0)={fmt(entry.initial_energy)} {status}")
    return EXIT_PASS if sweep.all_ok else EXIT_CHECK_FAILED


def _run_ode_case(case: str, seed: int) -> tuple[bool, dict]:
    """Pass flag and result files of one demo: file name -> CSV payload or JSON doc."""
    rng = np.random.default_rng(seed)
    files = {}
    if case in ("linear", "rotation"):
        problem = linear_decay_problem() if case == "linear" else rotation_problem()
        # dt = 1e-4 keeps the margin quadrature under the 1e-8 tolerance
        path = integrate(problem, dt=1e-4)
        apriori_ok = apriori_bound_holds(problem, path)
        worst = 0.0
        for _ in range(20):
            coeffs = rng.uniform(-1.0, 1.0, (4, problem.dimension))
            scale = np.array([problem.horizon**-p for p in range(4)])
            coeffs = coeffs * scale[:, None]

            def curve(t, c=coeffs):
                t = np.asarray(t, float)
                return sum(c[p] * t[..., None] ** p for p in range(4))

            def curve_rate(t, c=coeffs):
                t = np.asarray(t, float)
                return sum(p * c[p] * t[..., None] ** (p - 1) for p in range(1, 4))

            report = dissipative_margin(path, curve, curve_rate, problem)
            worst = min(worst, report.min_margin)
        ok = apriori_ok and worst >= -1e-8
        files[f"ode_{case}.csv"] = {"times": path.times, "states": path.states,
                                    "norm_sq": path.norm_sq(),
                                    "bound": apriori_bound(problem, path)}
        files[f"ode_{case}.json"] = {"case": case, "min_margin": float(worst),
                                     "apriori_ok": apriori_ok, "pass": ok}
        return ok, files

    # sgn relay: mollified family convergence to max(0, 1 - t)
    problem, family = dry_friction_problem()
    ok = True
    results = []
    for eps in family.epsilons:
        dt = min(1e-3, eps / 10.0)
        path = integrate(problem, rhs=family.member(eps), dt=dt)
        limit = np.maximum(0.0, 1.0 - path.times)
        sup_err = float(np.max(np.abs(path.states[:, 0] - limit)))
        bound = 5.0 * eps * (1.0 + abs(np.log(eps)))
        ok = ok and sup_err <= bound
        results.append({"epsilon": float(eps), "sup_error": sup_err,
                        "bound": float(bound), "pass": bool(sup_err <= bound)})
        closed = mollified_friction_exact(path.times, eps)
        files[f"ode_sgn_eps{fmt(eps)}.csv"] = {"times": path.times, "states": path.states,
                                               "norm_sq": path.norm_sq(),
                                               "bound": closed**2}
    smooth_path = integrate(problem, rhs=family.member(family.epsilons[-1]),
                            dt=1e-4)
    ok = ok and apriori_bound_holds(problem, smooth_path)
    files["ode_sgn.json"] = {"case": "sgn", "results": results, "pass": bool(ok)}
    return ok, files


def _cmd_ode_demo(args) -> int:
    ok, files = _run_ode_case(args.case, args.seed)
    outdir = _prepare_out(args, "ode-demo")
    for name, payload in files.items():
        write = write_ode_demo_csv if name.endswith(".csv") else write_json
        write(os.path.join(outdir, name), payload)
    print(f"case={args.case} pass={ok}")
    return EXIT_PASS if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphaflow",
        description="Maxwell-alpha / Euler-alpha solver and dissipative-solution checks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_run = sub.add_parser("run", help="integrate a configuration")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="dissipative-inequality check")
    p_check.add_argument("--config", required=True)
    p_check.add_argument("--out", required=True)
    p_check.add_argument("--mode", required=True,
                         choices=["zero-test", "self-test", "test-pair"])
    p_check.add_argument("--test-pair", default=None)
    p_check.add_argument("--trajectory", default=None,
                         help="reuse an existing trajectory file")
    p_check.add_argument("--gamma", type=float, default=None)
    p_check.add_argument("--tolerance", type=float, default=None)
    p_check.add_argument("--fit-degree", type=int, default=10)
    p_check.add_argument("--seed", type=int, default=None)
    p_check.set_defaults(func=_cmd_check)

    p_id = sub.add_parser("identities", help="cancellation-identity suite")
    p_id.add_argument("--n", type=int, default=64)
    p_id.add_argument("--dim", type=int, default=2)
    p_id.add_argument("--alpha", type=float, default=1.0)
    p_id.add_argument("--samples", type=int, default=100)
    p_id.add_argument("--seed", type=int, default=0)
    p_id.add_argument("--threshold", type=float, default=1e-10)
    p_id.set_defaults(func=_cmd_identities)

    p_gw = sub.add_parser("gronwall-selftest", help="comparison-lemma self-test")
    p_gw.add_argument("--samples", type=int, default=10_000)
    p_gw.add_argument("--seed", type=int, default=0)
    p_gw.set_defaults(func=_cmd_gronwall_selftest)

    p_cal = sub.add_parser("calibrate-gamma", help="estimate the domain constant")
    p_cal.add_argument("--n", type=int, default=64)
    p_cal.add_argument("--dim", type=int, default=2)
    p_cal.add_argument("--samples", type=int, default=100)
    p_cal.add_argument("--seed", type=int, default=0)
    p_cal.add_argument("--safety-factor", type=float, default=2.0)
    p_cal.add_argument("--out", default=None)
    p_cal.set_defaults(func=_cmd_calibrate_gamma)

    p_sweep = sub.add_parser("sweep-alpha", help="filter-length sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--alphas", default="1,0.5,0.25,0.1")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.set_defaults(func=_cmd_sweep_alpha)

    p_ode = sub.add_parser("ode-demo", help="abstract dissipative-ODE demos")
    p_ode.add_argument("--case", required=True,
                       choices=["linear", "rotation", "sgn"])
    p_ode.add_argument("--out", required=True)
    p_ode.add_argument("--seed", type=int, default=0)
    p_ode.set_defaults(func=_cmd_ode_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, ContractViolation, CheckpointError, OSError) as exc:
        # OSError: a missing or unreadable input file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationBlowup as exc:
        print(f"blowup: {exc}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
