"""Command-line front end: configured runs, sweeps and check suites with
CSV/JSON outputs and a manifest.json echoing every input.

Each command writes its data files and returns its manifest fields and its
one-line summary; run() alone writes manifest.json and prints the summary.
A run that fails after its arguments are parsed still writes manifest.json,
with the parameters, the error's type and message and, for NoConvergence,
the last residuals.  A usage error writes none.

Exit codes: 0 success, 2 validation error, 3 numerical failure or a failed
algebra check.  A one-line machine-parsable diagnostic goes to stderr on
failure.  Sweeps run vectorised or as plain loops; --jobs is accepted and
echoed in the manifest but does not change how a command runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__, algebra, bragg, greens, orbits, trapped_modes
from .errors import MetronLabError, NoConvergence, ValidationError
from .io import read_config, write_csv, write_gnuplot_stub, write_json
from .numerics import RadialGrid


def parse_values(text):
    """Comma list ("0,0.5,1") or range ("start:stop:count") of finite floats."""
    text = str(text)
    try:
        if ":" in text:
            a, b, n = text.split(":")
            with np.errstate(invalid="ignore"):  # inf ends are refused below
                values = list(np.linspace(float(a), float(b), int(n)))
        else:
            values = [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise ValidationError(
            f"expected a comma list or start:stop:count, got {text!r}") from None
    if not values:
        raise ValidationError(f"empty list {text!r}")
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"non-finite value in {text!r}")
    return values


def parse_vector(text, n):
    """n finite floats, as parse_values reads them."""
    vals = parse_values(text)
    if len(vals) != n:
        raise ValidationError(f"expected {n} comma-separated components, got {text!r}")
    return np.array(vals)


def _add_single_mode(parser):
    parser.add_argument("--omega-hat", type=float, default=1.0)
    parser.add_argument("--eps", type=float, default=1.0)
    parser.add_argument("--mode", type=int, default=0)
    parser.add_argument("--r0", type=float, default=5.0)
    parser.add_argument("--max-iters", type=int, default=200)
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--r-max", type=float, default=None)
    parser.add_argument("--n-points", type=int, default=2001)


class _Parser(argparse.ArgumentParser):
    """A parser that takes no abbreviated long flags and reports a usage
    error as a ValidationError, so it exits 2 with one line."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValidationError(message)

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        # argparse strips the value of "--flag=--" to an empty list
        empty = [k for k, v in vars(parsed).items() if v == []]
        if empty:
            self.error(f"argument --{empty[0].replace('_', '-')}: expected one argument")
        return parsed


class _CommandParser(_Parser):
    """A subcommand parser that records the dest of every argument added."""

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.dests = getattr(self, "dests", set()) | {action.dest}
        return action


def build_parser():
    """The top-level parser and its subcommand parsers by name; each
    subcommand parser carries the command function as `handler`."""
    top = _Parser(prog="metronlab")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=_CommandParser)
    commands = {}

    def command(name, handler):
        p = commands[name] = sub.add_parser(name)
        p.handler = handler
        p.add_argument("--output-dir", default="out")
        p.add_argument("--config", default=None)
        p.add_argument("--jobs", type=int, default=1)
        return p

    p = command("metron-solve", cmd_metron_solve)
    _add_single_mode(p)

    p = command("metron-rescale", cmd_metron_rescale)
    _add_single_mode(p)
    p.add_argument("--lam", type=str, required=True,
                   help="scale factor; a,b,c or start:stop:count sweeps the family")

    p = command("bragg-classify", cmd_bragg_classify)
    p.add_argument("--E0", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--omega0", type=float, required=True)
    p.add_argument("--s-max", type=float, default=0.0,
                   help="when positive, also integrate and write the trajectory")

    p = command("bragg-sweep", cmd_bragg_sweep)
    p.add_argument("--ratio", type=str, required=True, help="omega0*E0/gamma values")
    p.add_argument("--phi", type=str, required=True)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--omega0", type=float, default=1.0)

    p = command("bragg-lattice", cmd_bragg_lattice)
    p.add_argument("--ki", type=str, required=True, help="k1,k2,k3,k4 of the incident wave")
    p.add_argument("--fundamental", action="append", required=True,
                   help="spatial fundamental g1,g2,g3 (repeatable)")
    p.add_argument("--dimensionality", type=int, default=3)
    p.add_argument("--normal-axis", type=int, default=2)
    p.add_argument("--max-order", type=int, default=3)
    p.add_argument("--omega0", type=float, required=True)

    p = command("orbit-drift", cmd_orbit_drift)
    p.add_argument("--c1", type=float, required=True)
    p.add_argument("--c2", type=float, required=True)
    p.add_argument("--c3", type=float, required=True)
    p.add_argument("--d", type=float, default=1.0)
    p.add_argument("--delta-r0", type=float, required=True)
    p.add_argument("--t-max", type=float, default=200.0)

    p = command("orbit-threemode", cmd_orbit_threemode)
    p.add_argument("--a1", type=complex, default=1.0 + 0j)
    p.add_argument("--a2", type=complex, default=0.0 + 0j)
    p.add_argument("--a12", type=complex, default=0.0 + 0j)
    p.add_argument("--k", type=complex, default=1.0 + 0j)
    p.add_argument("--mu1", type=float, default=0.0)
    p.add_argument("--mu2", type=float, default=0.0)
    p.add_argument("--gamma-f", type=float, default=0.0)
    p.add_argument("--beta-dr", type=float, default=0.0)
    p.add_argument("--evolution", choices=["Emission", "PrescribedField"],
                   default="Emission")
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=400,
                   help="rows of threemode.csv, at uniform t from 0 to --t-max")

    p = command("orbit-variance", cmd_orbit_variance)
    p.add_argument("--n1", type=float, required=True)
    p.add_argument("--n2", type=float, required=True)
    p.add_argument("--kprime", type=float, required=True)
    p.add_argument("--mu1", type=float, default=0.0)
    p.add_argument("--mu2", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=200)

    p = command("greens-eval", cmd_greens_eval)
    p.add_argument("--r", type=str, required=True)
    p.add_argument("--t", type=str, required=True)
    p.add_argument("--omega-hat", type=float, default=1.0)
    p.add_argument("--k-max", type=float, default=60.0)
    p.add_argument("--kind", choices=list(greens.KERNEL_KINDS), default="retarded")
    p.add_argument("--method", choices=["quadrature", "stationary", "lightcone"],
                   default="quadrature")

    p = command("greens-conserve", cmd_greens_conserve)
    p.add_argument("--kind", choices=list(greens.KERNEL_KINDS), default="symmetric")
    p.add_argument("--sigma", type=float, default=0.4)
    p.add_argument("--separation", type=float, default=4.0)
    p.add_argument("--speed", type=float, default=0.3)
    p.add_argument("--span", type=float, default=6.0)
    p.add_argument("--samples", type=int, default=121)

    p = command("algebra-check", cmd_algebra_check)
    p.add_argument("--suite", default=",".join(algebra.SUITES))

    p = command("calibrate", cmd_calibrate)
    p.add_argument("--a-sq", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--m-core", type=float, required=True)
    p.add_argument("--k5", type=float, required=True)
    p.add_argument("--gprime", type=float, required=True)

    return top, commands


def _apply_config(command, argv):
    """Merge a flat config file (--config PATH or --config=PATH) under
    explicit CLI flags; unknown keys are rejected with exit code 2."""
    for idx, arg in enumerate(argv):
        if arg == "--config":
            if idx + 1 == len(argv):
                raise ValidationError("--config needs a file path")
            path = argv[idx + 1]
            break
        if arg.startswith("--config="):
            path = arg[len("--config="):]
            break
    else:
        return argv
    extra = []
    for key, value in read_config(path).items():
        dest = key.strip().replace("-", "_")
        if dest not in command.dests:
            raise ValidationError(f"unknown config key {key!r}")
        flag = "--" + dest.replace("_", "-")
        if flag in argv or any(a.startswith(flag + "=") for a in argv):
            continue  # explicit flags override config values
        extra.extend([flag, value])
    return argv[:1] + extra + argv[1:]


def manifest_from(args, fields):
    payload = {
        "command": args.command,
        "version": __version__,
        "parameters": {
            k: v for k, v in sorted(vars(args).items()) if k != "command"
        },
    }
    payload.update(fields)
    return payload


def _solve_from_args(args):
    params = trapped_modes.SingleModeParams(
        omega_hat=args.omega_hat,
        epsilon=args.eps,
        mode_order=args.mode,
        r0=args.r0,
        max_iters=args.max_iters,
        tol=args.tol,
    )
    r_max = args.r_max if args.r_max is not None else trapped_modes.default_r_max(params.r0)
    return trapped_modes.iterate_single_mode(params, grid=RadialGrid(r_max, args.n_points))


def cmd_metron_solve(args, out):
    sol = _solve_from_args(args)
    write_csv(out / "solution.csv", ["r", "phi0", "phi1", "kappa_sq"], sol.to_csv_rows())
    write_gnuplot_stub(out / "solution.gp", "solution.csv", "trapped mode",
                       1, [(2, "phi0"), (3, "phi1"), (4, "kappa_sq")])
    write_json(out / "solution.json", sol.to_json_dict())
    return {
        "omega": sol.omega,
        "residual_eigen": sol.residual_eigen,
        "residual_poisson": sol.residual_poisson,
        "iterations_used": sol.iterations_used,
        "well_parameter": sol.well_parameter(),
        "crossing_radius": sol.crossing_radius(),
    }, (f"omega = {sol.omega:.12g}  residuals = ({sol.residual_eigen:.3e}, "
        f"{sol.residual_poisson:.3e})  iterations = {sol.iterations_used}")


def cmd_metron_rescale(args, out):
    lams = parse_values(args.lam)
    sol = _solve_from_args(args)
    fields = {"omega_base": sol.omega, "lambda_max": trapped_modes.max_scale_factor(sol)}
    if len(lams) == 1:
        scaled = trapped_modes.rescale(sol, lams[0])
        write_csv(out / "rescaled.csv", ["r", "phi0", "phi1", "kappa_sq"],
                  scaled.to_csv_rows())
        return {
            **fields,
            "omega_rescaled": scaled.omega,
            "residual_eigen": scaled.residual_eigen,
            "residual_poisson": scaled.residual_poisson,
        }, f"omega' = {scaled.omega:.12g} (base {sol.omega:.12g})"

    rows = []
    for lam in lams:
        try:
            sc = trapped_modes.rescale(sol, lam)
            rows.append((lam, sc.omega, sc.residual_eigen, sc.residual_poisson, "ok"))
        except MetronLabError as exc:
            rows.append((lam, float("nan"), float("nan"), float("nan"),
                         f"error:{type(exc).__name__}"))
    write_csv(out / "rescale_sweep.csv",
              ["lambda", "omega", "residual_eigen", "residual_poisson", "status"],
              rows)
    return {**fields, "points": len(rows)}, f"{len(rows)} rescalings"


def cmd_bragg_classify(args, out):
    state = bragg.BraggTrapState(E=args.E0, deltaS=0.0, gamma=args.gamma,
                                 phi=args.phi, omega0=args.omega0)
    res = bragg.classify_trapping(state)
    payload = dict(res)
    if abs(res["B"]) <= 1.0:
        st, un = bragg.equilibrium_phases(res["B"], args.phi)
        payload["deltaS_stable"] = st
        payload["deltaS_unstable"] = un
    if args.s_max > 0:
        s_path, E, dS = bragg.integrate_trap(state, args.s_max)
        const = bragg.first_integral(E, dS, state)
        write_csv(out / "trajectory.csv", ["s", "E", "deltaS", "first_integral"],
                  zip(s_path, E, dS, const))
        write_gnuplot_stub(out / "trajectory.gp", "trajectory.csv",
                           "resonance trapping", 1, [(2, "E"), (3, "deltaS")])
        payload["first_integral_drift"] = float(np.max(np.abs(const - const[0])))
    write_json(out / "classification.json", payload)
    return payload, f"verdict = {res['verdict']}  B = {res['B']:.12g}"


def cmd_bragg_sweep(args, out):
    cols = bragg.classify_sweep(parse_values(args.ratio), parse_values(args.phi),
                                args.gamma, args.omega0)
    cells = len(cols["B"])
    write_csv(out / "sweep.csv", list(cols),
              zip(*(col.tolist() for col in cols.values())))
    return {"cells": cells}, f"{cells} cells"


def cmd_bragg_lattice(args, out):
    k_i = parse_vector(args.ki, 4)
    fundamentals = []
    for g in args.fundamental:
        v = parse_vector(g, 3)
        fundamentals.append(np.array([v[0], v[1], v[2], 0.0]))
    lattice = bragg.LatticeSpec(
        fundamental_wavenumbers=tuple(fundamentals),
        dimensionality=args.dimensionality,
        max_order=args.max_order,
        normal_axis=args.normal_axis,
    )
    ks = bragg.bragg_scatter_set(k_i, lattice, args.omega0)
    rows = [(k[0], k[1], k[2], k[3], bragg.minkowski_dot(k, k)) for k in ks]
    write_csv(out / "scatter_set.csv", ["k1", "k2", "k3", "k4", "k_dot_k"], rows)
    return {"count": len(rows)}, f"{len(rows)} on-shell scattered wavenumbers"


def cmd_orbit_drift(args, out):
    model = orbits.OrbitDriftModel(d=args.d, C1=args.c1, C2=args.c2, C3=args.c3)
    eq = orbits.drift_equilibria(model)
    res = orbits.integrate_drift(model, args.delta_r0, args.t_max)
    write_csv(out / "drift_path.csv", ["t", "delta_r"],
              zip(res["t"], res["delta_r"]))
    dr = np.linspace(min(res["delta_r"].min(), -3), max(res["delta_r"].max(), 3), 601)
    rate = orbits.drift_rhs(model, dr)
    finite = np.isfinite(rate)  # the pole, at C3 = 0 and delta_r = 0, is left out
    write_csv(out / "phase_portrait.csv", ["delta_r", "ddelta_r_dt"],
              zip(dr[finite], rate[finite]))
    write_gnuplot_stub(out / "phase_portrait.gp", "phase_portrait.csv",
                       "orbit drift phase portrait", 1, [(2, "d(delta_r)/dt")])
    verdict = {k: v for k, v in res.items() if k not in ("t", "delta_r")}
    return {
        "equilibria": [{"delta_r": r, "stability": s} for r, s in eq],
        "verdict": verdict,
    }, (f"verdict = {res['verdict']}"
        + (f" root = {res['root']:.9g}" if "root" in res else ""))


def cmd_orbit_threemode(args, out):
    if args.samples < 2:
        raise ValidationError("--samples must be at least 2 to span 0 to --t-max")
    state = orbits.ThreeModeState(
        A1=args.a1, A2=args.a2, A12=args.a12, K=args.k,
        mu1=args.mu1, mu2=args.mu2, gamma_f=args.gamma_f, beta_dr=args.beta_dr,
    )
    t, A1, A2, A12 = orbits.integrate_three_mode(
        state, mode=args.evolution, t_max=args.t_max, samples=args.samples
    )
    inv1, inv2 = orbits.manley_rowe(A1, A2, A12)
    write_csv(out / "threemode.csv",
              ["t", "abs_A1", "abs_A2", "abs_A12", "inv_sum", "inv_diff"],
              zip(t, np.abs(A1), np.abs(A2), np.abs(A12), inv1, inv2))
    return {
        "invariant_drift": float(np.max(np.abs(inv1 - inv1[0]))),
    }, f"integrated to t = {t[-1]:.6g}"


def cmd_orbit_variance(args, out):
    if args.samples < 1:
        raise ValidationError("--samples must be at least 1")
    t = np.linspace(0.0, args.t_max, args.samples)
    N1, N2 = orbits.evolve_variances(args.n1, args.n2, args.kprime,
                                     args.mu1, args.mu2, t)
    write_csv(out / "variances.csv", ["t", "N1", "N2"], zip(t, N1, N2))
    return {
        "N1_final": float(N1[-1]), "N2_final": float(N2[-1]),
    }, f"N1 -> {N1[-1]:.9g}, N2 -> {N2[-1]:.9g}"


def cmd_greens_eval(args, out):
    rs = parse_values(args.r)
    ts = parse_values(args.t)
    params = greens.DispersionParams(omega_hat=args.omega_hat, k_max=args.k_max)
    rows = []
    for r in rs:
        for t in ts:
            if args.method == "quadrature":
                val = greens.greens_dispersive(r, t, params, args.kind)
            elif args.method == "stationary":
                val = greens.greens_stationary_phase(r, t, params, args.kind)
            else:
                desc = greens.greens_nondispersive(r, t, args.kind)
                val = sum(b["weight"] for b in desc["branches"] if b["on_support"])
            rows.append((r, t, val, args.method))
    write_csv(out / "kernel_scan.csv", ["r", "t", "value", "method"], rows)
    return {"points": len(rows)}, f"{len(rows)} kernel evaluations"


def cmd_greens_conserve(args, out):
    if args.samples < 2:
        raise ValidationError("--samples must be at least 2 for the trapezoid rule")
    n = args.samples
    span = (-args.span, args.span)
    line_i = greens.WorldLine.static_point([0.0, 0.0, 0.0], span, n)
    line_j = greens.WorldLine.from_velocity(
        [args.separation, 0.0, 0.0], [0.0, args.speed, 0.0], span, n
    )
    dp_i, dp_j = greens.momentum_exchange(line_i, line_j, args.sigma, args.kind)
    total = dp_i + dp_j
    scale = max(float(np.max(np.abs(dp_i))), 1e-300)
    payload = {
        "kind": args.kind,
        "dp_i": dp_i.tolist(),
        "dp_j": dp_j.tolist(),
        "total": total.tolist(),
        "relative_violation": float(np.max(np.abs(total)) / scale),
    }
    write_json(out / "conservation.json", payload)
    return payload, f"max |dp_i + dp_j| / max |dp_i| = {payload['relative_violation']:.3e}"


def cmd_algebra_check(args, out):
    names = [s.strip() for s in args.suite.split(",") if s.strip()]
    checks = algebra.run_suite(names)
    all_pass = all(c["status"] == "pass" for c in checks)
    write_json(out / "algebra_report.json",
               {"suite": names, "checks": checks, "all_pass": all_pass})
    worst = max(c["max_deviation"] for c in checks)
    return ({"all_pass": all_pass, "count": len(checks)},
            f"{len(checks)} checks, all_pass = {all_pass}, worst deviation = {worst:.3e}",
            0 if all_pass else 3)


def cmd_calibrate(args, out):
    cal = algebra.calibrate_constants(args.a_sq, args.beta, args.m_core,
                                      args.k5, args.gprime)
    write_json(out / "constants.json", cal)
    return cal, "  ".join(f"{k} = {v:.12g}" for k, v in cal.items())


def run(argv):
    """Execute one command; returns the process exit code, which is 0 unless
    the command returns its own as a third value (algebra-check)."""
    parser, commands = build_parser()
    args = None
    try:
        if argv and argv[0] in commands:
            argv = _apply_config(commands[argv[0]], list(argv))
        args = parser.parse_args(argv)
        out = Path(args.output_dir)
        fields, summary, *status = commands[args.command].handler(args, out)
        write_json(out / "manifest.json", manifest_from(args, fields))
        print(summary)
        return status[0] if status else 0
    except MetronLabError as exc:
        if args is not None:
            error = {"type": type(exc).__name__, "message": str(exc)}
            if isinstance(exc, NoConvergence):
                error["residuals"] = exc.residuals
            write_json(Path(args.output_dir) / "manifest.json",
                       manifest_from(args, {"error": error}))
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
