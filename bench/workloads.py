"""Seeded items of the three benchmark workloads and the check of each item.

A workload turns a seed into one *round*: a fixed list of items.  A run
repeats the round back to back (closed loop, one client), so every round
does the same work and per-round counts repeat exactly.  Items call the
library only through module attributes looked up at call time, so the
tracer's wrappers see them.  See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
from pathlib import Path

import numpy as np

import metronlab
from metronlab import bragg, cli, numerics, orbits, trapped_modes

TWO_PI = 2.0 * math.pi


class Item:
    """One timed operation: ``call()`` is timed, ``check(out)`` is not.

    ``check`` returns ``(problems, physics)``: a list of failed checks and a
    dict of the physics values the item produced (recorded, not gated).
    ``kind`` names the end-to-end slot the item's latency feeds; ``part`` is
    the process of the round that plays it.
    """

    def __init__(self, kind, label, call, check, out_dir=None):
        self.kind = kind
        self.label = label
        self.call = call
        self.check = check
        self.out_dir = out_dir
        self.part = 0


# ---------------------------------------------------------------------------
# discrete checks shared by the solve items (independent of the solver code)
# ---------------------------------------------------------------------------

def _laplacian(r, h, phi):
    u = r * phi
    return (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (r[1:-1] * h * h)


def eigen_residual(r, h, phi, kappa_sq):
    res = _laplacian(r, h, phi) + kappa_sq[1:-1] * phi[1:-1]
    return float(np.max(np.abs(res)) / np.max(np.abs(phi)))


def poisson_residual(r, h, phi0, source, stop=None):
    """Relative residual of lap(phi0) = -source on interior nodes up to stop."""
    res = (_laplacian(r, h, phi0) + source[1:-1])[:stop]
    return float(np.max(np.abs(res)) / np.max(np.abs(source)))


def first_crossing(r, values):
    """First zero of values, interpolated linearly; a node value of exactly
    0 (r0 on a grid node) counts as the crossing."""
    idx = np.where(np.sign(values[1:]) != np.sign(values[0]))[0]
    if idx.size == 0:
        return float("nan")
    j = idx[0]
    t = values[j] / (values[j] - values[j + 1])
    return float(r[j] + t * (r[j + 1] - r[j]))


def node_count(r, phi, rel=1e-8):
    u = (r * phi)[1:]
    s = np.sign(u[np.abs(u) > rel * np.max(np.abs(u))])
    return int(np.count_nonzero(s[1:] * s[:-1] < 0))


def mode_problems(tag, r, h, phi, kappa_sq, r0, order):
    out = []
    res = eigen_residual(r, h, phi, kappa_sq)
    if not res < 1e-6:
        out.append(f"{tag}: eigen residual {res:.2e}")
    x = first_crossing(r, kappa_sq)
    if not abs(x - r0) <= h:
        out.append(f"{tag}: kappa^2 crosses at {x:.6g}, r0 = {r0:.6g}, h = {h:.3g}")
    nodes = node_count(r, phi)
    if nodes != order:
        out.append(f"{tag}: {nodes} nodes, mode order {order}")
    return out


# ---------------------------------------------------------------------------
# file helpers for CLI items
# ---------------------------------------------------------------------------

def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_config(path, values):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()),
                    encoding="utf-8")
    return str(path)


def cli_item(kind, label, argv, out_dir, check):
    """An item running one subcommand through ``cli.run`` into out_dir."""
    argv = list(argv) + ["--output-dir", str(out_dir)]

    def call():
        return cli.run(argv)

    def checked(code):
        if code != 0:
            return [f"exit code {code}"], {}
        return check(Path(out_dir))

    return Item(kind, label, call, checked, out_dir=out_dir)


def _f(x):
    return format(float(x), ".6f")


# ---------------------------------------------------------------------------
# solve: trapped-mode solves
# ---------------------------------------------------------------------------

def _check_solution(mode_order):
    def check(out):
        sol = read_json(out / "solution.json")
        read_json(out / "manifest.json")
        read_csv(out / "solution.csv")
        g = sol["grid"]
        r = np.linspace(0.0, g["r_max"], g["n_points"])
        h = r[1] - r[0]
        p = sol["params"]
        phi0, phi1 = np.array(sol["phi0"]), np.array(sol["phi1"])
        kv = np.array(sol["kappa_sq"])
        problems = mode_problems("mode", r, h, phi1, kv, p["r0"], mode_order)
        src = p["epsilon"] * p["omega_hat"] ** 2 * phi1 ** 2
        res = poisson_residual(r, h, phi0, src)
        if not res < 1e-6:
            problems.append(f"Poisson residual {res:.2e}")
        return problems, {"omega": sol["omega"], "sweeps": sol["iterations_used"]}
    return check


def _check_rescale(omega_hat, n_lam):
    def check(out):
        man = read_json(out / "manifest.json")
        head, rows = read_csv(out / "rescale_sweep.csv")
        w2, om = omega_hat ** 2, man["omega_base"]
        problems = []
        lam_max = 1.0 / math.sqrt(1.0 - om * om / w2)
        if not abs(man["lambda_max"] - lam_max) <= 1e-12 * lam_max:
            problems.append(f"lambda_max {man['lambda_max']!r} != {lam_max!r}")
        if len(rows) != n_lam:
            problems.append(f"{len(rows)} rescalings, expected {n_lam}")
        col = {name: i for i, name in enumerate(head)}
        for row in rows:
            lam = float(row[col["lambda"]])
            if row[col["status"]] != "ok":
                problems.append(f"lambda {lam:.6g}: {row[col['status']]}")
                continue
            want = math.sqrt(max(w2 - lam * lam * (w2 - om * om), 0.0))
            got = float(row[col["omega"]])
            if not abs(got - want) <= 1e-12 * max(want, 1.0):
                problems.append(f"lambda {lam:.6g}: omega {got!r} off the scale law")
            for name in ("residual_eigen", "residual_poisson"):
                if not float(row[col[name]]) < 1e-6:
                    problems.append(f"lambda {lam:.6g}: {name} {row[col[name]]}")
        return problems, {"omega_base": om, "lambda_max": man["lambda_max"]}
    return check


def _fifth_item(s, e, n_points):
    """Fifth-order item from the scale family of solve_fifth_order(1,1,1,1,r0=5):
    frequencies times s, lengths over s, eps1 = e, eta2 = e^3 (which keeps
    eps1*phi0 and the phi2 equation invariant), so the work is the same at
    every seed while the inputs differ."""
    r0 = 5.0 / s
    args = dict(omega_hat_1=s, omega_hat_2=s, eps1=e, eta2=e ** 3, r0=r0)
    grid_args = (40.0 / s, n_points)

    def call():
        grid = numerics.RadialGrid(*grid_args)
        return trapped_modes.solve_fifth_order(**args, max_iters=400, tol=1e-9,
                                               grid=grid)

    def check(sol):
        r = sol.phi1.grid.r
        h = sol.phi1.grid.spacing
        w2_1 = s * s
        phi0, phi1, phi2 = sol.phi0.values, sol.phi1.values, sol.phi2.values
        kv = sol.omegas[0] ** 2 - w2_1 + e * w2_1 * phi0
        problems = mode_problems("phi1", r, h, phi1, kv, r0, 0)
        src = e * w2_1 * phi1 ** 2 + e ** 3 * s * s * phi2 ** 4
        # the solver tapers the algebraic phi2^4 source near the box edge, so
        # the outer 5% of the nodes is left out
        res = poisson_residual(r, h, phi0, src, stop=-(len(r) // 20))
        if not res < 1e-6:
            problems.append(f"Poisson residual {res:.2e}")
        if not sol.tail_variation < 0.05:
            problems.append(f"tail variation {sol.tail_variation:.3g}")
        return problems, {"omega_1": sol.omegas[0],
                          "tail_coefficient": sol.tail_coefficient,
                          "sweeps": sol.iterations_used}

    return Item("kind3", f"fifth {n_points}pt s={s:.4f} e={e:.4f}", call, check)


def _multimode_item(s, e, n_points):
    """Two modes, two fields (the spec of test_two_modes_two_fields) carried
    through its scale family: frequencies times s, radii and box over s,
    couplings times e."""
    modes = ((s, 1, 0), (0.8 * s, 1, 0))
    eps = e * np.array([[1.0, 0.15], [0.15, 1.0]])
    radii = (5.0 / s, 6.5 / s)

    def call():
        spec = trapped_modes.MultiModeSpec(modes=modes, couplings=eps, scale_radii=radii)
        grid = numerics.RadialGrid(30.0 / s, n_points)
        return trapped_modes.solve_multimode(spec, max_iters=1500, tol=1e-9, grid=grid)

    def check(sol):
        grid = sol.mean_fields[0].grid
        r, h = grid.r, grid.spacing
        fields = [f.values for f in sol.mean_fields]
        problems = []
        for p, (w, _, order) in enumerate(modes):
            kv = sol.omegas[p] ** 2 - w * w + sum(
                eps[a, p] * w * w * fields[a] for a in range(len(fields)))
            problems += mode_problems(f"mode {p}", r, h, sol.mode_fields[p].values,
                                      kv, radii[p], order)
        for a, phi_a in enumerate(fields):
            src = sum(eps[a, q] * modes[q][0] ** 2 * sol.mode_fields[q].values ** 2
                      for q in range(len(modes)))
            res = poisson_residual(r, h, phi_a, src)
            if not res < 1e-6:
                problems.append(f"field {a}: Poisson residual {res:.2e}")
        return problems, {"omega_p": list(sol.omegas), "sweeps": sol.iterations_used}

    return Item("kind4", f"multimode {n_points}pt s={s:.4f} e={e:.4f}", call, check)


def solve_round(rng, work):
    """Eleven items in three processes of 15-30 s.  Each kind is spread
    over the processes, so its samples are taken at moments across the run:
    the machine's speed drifts over seconds, and a kind played in one stretch
    catches only that stretch.  The fifth-order and multimode items are
    drawn three times each, one per process, on coarse grids (401 and 201
    points)."""
    # mode-0 reference problem first, through the CLI as users run it
    ref = cli_item(
        "kind1", "mode0 reference", ["metron-solve", "--omega-hat", "1", "--eps", "1",
                                     "--r0", "5"],
        work / "solve0", _check_solution(0))
    # seeded mode-0 through metron-rescale at 501 points; its values come
    # from a config file
    wh, ep, x = rng.uniform(0.8, 1.25), rng.uniform(0.5, 2.0), rng.uniform(5.0, 8.0)
    n_lam = 41
    cfg = write_config(work / "inputs" / "rescale.cfg",
                       {"omega-hat": _f(wh), "eps": _f(ep), "r0": _f(x / wh),
                        "n-points": "501"})
    resc = cli_item(
        "kind1", f"mode0 rescale 501pt wr0={x:.3f}",
        ["metron-rescale", "--config", cfg, "--lam", f"0.6:1.4:{n_lam}"],
        work / "solve1", _check_rescale(float(_f(wh)), n_lam))
    # seeded mode-0 at 4001 points: grid size is a varied property
    wh, ep, x = rng.uniform(0.8, 1.25), rng.uniform(0.5, 2.0), rng.uniform(5.0, 8.0)
    r0 = float(_f(x / wh))
    fine = cli_item(
        "kind1", f"mode0 4001pt wr0={x:.3f}",
        ["metron-solve", "--omega-hat", _f(wh), "--eps", _f(ep), "--r0", _f(r0),
         "--r-max", _f(max(30.0, 6.0 * r0)), "--n-points", "4001"],
        work / "solve2", _check_solution(0))
    # two mode-1 solves at 801 points, one in each half of the range; they
    # need more than the default 200 sweeps
    mode1 = []
    for j, (x_lo, x_hi) in enumerate(((9.0, 11.5), (11.5, 14.0))):
        wh, ep, x = rng.uniform(0.8, 1.25), rng.uniform(0.5, 2.0), rng.uniform(x_lo, x_hi)
        mode1.append(cli_item(
            "kind2", f"mode1 801pt wr0={x:.3f}",
            ["metron-solve", "--mode", "1", "--max-iters", "400", "--omega-hat", _f(wh),
             "--eps", _f(ep), "--r0", _f(x / wh), "--n-points", "801"],
            work / f"solve{3 + j}", _check_solution(1)))
    f = [_fifth_item(rng.uniform(0.9, 1.1), rng.uniform(0.8, 1.25), 401)
         for _ in range(3)]
    m = [_multimode_item(rng.uniform(0.9, 1.1), rng.uniform(0.8, 1.25), 201)
         for _ in range(3)]
    # play order by process; same-kind items sit far apart in time
    parts = ([ref, f[0], m[0], mode1[0]],
             [m[1], f[1], resc],
             [fine, f[2], m[2], mode1[1]])
    items = []
    for p, part in enumerate(parts):
        for item in part:
            item.part = p
            items.append(item)
    return items


# ---------------------------------------------------------------------------
# trajectories: integrator-bound items
# ---------------------------------------------------------------------------

def _draw_cell(rng, b_lo, b_hi):
    """(ratio, phi) with B = ratio - sin(phi) in [b_lo, b_hi], ratio in [0, 3]."""
    while True:
        B, phi = rng.uniform(b_lo, b_hi), rng.uniform(0.0, TWO_PI)
        ratio = B + math.sin(phi)
        if 0.0 <= ratio <= 3.0:
            return ratio, phi


def _cell_item(ratio, phi):
    state = bragg.BraggTrapState(E=ratio, deltaS=0.0, gamma=1.0, phi=phi, omega0=1.0)

    def call():
        return bragg.trap_verdict_by_integration(state)

    def check(res):
        rule = bragg.classify_trapping(state)
        problems = []
        if res["verdict"] != rule["verdict"]:
            problems.append(f"integration says {res['verdict']}, "
                            f"classify_trapping says {rule['verdict']}")
        return problems, {"B": rule["B"], "verdict": res["verdict"]}

    return Item("kind1", f"cell B={ratio - math.sin(phi):.4f}", call, check)


def _grid_item(rng, n, s_max, rhs_stats):
    """Criterion-4-style batch: n Bragg cells in one 2n-dimensional state.

    Ratios and phases are stratified over [0, 3] x [0, 2pi), so the fastest
    cell, which sets the step size, is alike at every seed."""
    E0 = 3.0 * (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n
    PH = TWO_PI * (rng.permutation(n) + rng.uniform(0.0, 1.0, n)) / n

    def rhs(s, y):
        rhs_stats["evals"] += 1
        E = y[:n]
        return np.concatenate([-E * np.cos(y[n:] + PH), -E])

    def call():
        return numerics.integrate_ivp(rhs, np.concatenate([E0, np.zeros(n)]),
                                      (0.0, s_max), tol=1e-12)

    def check(res):
        rhs_stats["steps"] += len(res.t) - 1
        E, S = res.y[:, :n], res.y[:, n:]
        const = E - (np.sin(S + PH) - np.sin(PH))
        drift = np.max(np.abs(const - const[0]), axis=0) / np.maximum(E0, 1.0)
        worst = float(np.max(drift))
        problems = [] if worst < 1e-8 else [f"first-integral drift {worst:.2e}"]
        return problems, {"worst_drift": worst}

    return Item("kind2", f"grid n={n} s={s_max:g}", call, check)


CANYON = dict(d=1.0, C1=-1.0, C2=0.5, C3=0.25)


def _drift_item(x0):
    model = orbits.OrbitDriftModel(**CANYON)
    labels = {label: root for root, label in orbits.drift_equilibria(model)}

    def call():
        return orbits.integrate_drift(model, x0, 600.0)

    def check(res):
        want = "TrappedAt" if x0 > labels["Unstable"] else "Escaped"
        problems = []
        if res["verdict"] != want:
            problems.append(f"start {x0:.6g}: {res['verdict']}, basin says {want}")
        elif want == "TrappedAt" and not abs(res["root"] - labels["Stable"]) < 1e-6:
            problems.append(f"start {x0:.6g}: trapped at {res['root']:.9g}")
        return problems, {"verdict": res["verdict"]}

    return Item("kind3", f"drift x0={x0:.4f}", call, check)


# arg(K A2 A12) of the criterion-6 triplet A2 = 0.4+0.1j, A12 = 0.3-0.2j, K = 0.5
THREEMODE_PHASE = float(np.angle(0.4 + 0.1j) + np.angle(0.3 - 0.2j))


def _polar(modulus, rng):
    theta = rng.uniform(0.0, TWO_PI)
    return modulus * complex(math.cos(theta), math.sin(theta))


def _threemode_item(rng):
    """The criterion-6 triplet under a seeded phase gauge: A2 and K get
    random phases and A12 the phase that keeps arg(K A2 A12) fixed, so the
    exchange dynamics, and with them the cost, are those of the reference
    at every seed while the inputs differ."""
    K = _polar(0.5, rng)
    a2 = _polar(abs(0.4 + 0.1j), rng)
    theta = THREEMODE_PHASE - np.angle(K) - np.angle(a2)
    a12 = abs(0.3 - 0.2j) * complex(math.cos(theta), math.sin(theta))
    state = orbits.ThreeModeState(A1=1.0, A2=a2, A12=a12, K=K)
    t_max = 25.0 / abs(K)

    def call():
        return orbits.integrate_three_mode(state, mode="Emission", t_max=t_max, tol=1e-12)

    def check(res):
        _, A1, A2, A12 = res
        inv1, inv2 = orbits.manley_rowe(A1, A2, A12)
        d1 = float(np.max(np.abs(inv1 - inv1[0])) / inv1[0])
        d2 = float(np.max(np.abs(inv2 - inv2[0])) / max(abs(inv2[0]), 1.0))
        problems = [] if max(d1, d2) < 1e-8 else [f"Manley-Rowe drift {max(d1, d2):.2e}"]
        return problems, {"manley_rowe_drift": max(d1, d2)}

    return Item("kind4", f"threemode |K|={abs(K):.4f}", call, check)


def trajectories_round(rng, rhs_stats):
    # cells stratified by B, whose distance from 1 sets the integration
    # span: six trapped, one oscillatory far from the threshold, one near it.
    # The trapped cells' step count follows phi, so phi is stratified too.
    strata = np.linspace(0.3, math.pi - 0.3, 7)
    cells = []
    for a, b in zip(strata[:-1], strata[1:]):
        phi = rng.uniform(a, b)
        cells.append((rng.uniform(-0.2, 0.8) + math.sin(phi), phi))
    cells.append(_draw_cell(rng, 1.8, 2.2))
    cells.append(_draw_cell(rng, 1.045, 1.05))
    cells = [_cell_item(*c) for c in cells]
    # two grids on half the span, so the batched call is timed twice a round
    grids = [_grid_item(rng, 40, 50.0, rhs_stats) for _ in range(2)]
    model = orbits.OrbitDriftModel(**CANYON)
    eq = {label: root for root, label in orbits.drift_equilibria(model)}
    # starts in both basins, stratified over each: six escapes end within a
    # few dozen steps and are the round's cheapest items, which puts the
    # median item among the trapped cells instead of at their slowest
    drifts = []
    for lo, hi, n in ((eq["Unstable"] - 1.5, eq["Unstable"] - 0.05, 6),
                      (eq["Unstable"] + 0.05, eq["Stable"] + 2.0, 2)):
        edges = np.linspace(lo, hi, n + 1)
        drifts += [_drift_item(rng.uniform(a, b)) for a, b in zip(edges[:-1], edges[1:])]
    threemodes = [_threemode_item(rng), _threemode_item(rng)]
    # each half of the round holds every kind, interleaved, so each kind's
    # time is sampled across the round: the machine's speed drifts within
    # seconds, and a kind played in one stretch catches only that stretch
    items = []
    for h in range(2):
        t, e = cells[3 * h:3 * h + 3], drifts[3 * h:3 * h + 3]
        items += [t[0], e[0], cells[6 + h], t[1], e[1], threemodes[h], t[2], e[2],
                  drifts[6 + h], grids[h]]
    return items


# ---------------------------------------------------------------------------
# cli: every other subcommand
# ---------------------------------------------------------------------------

def _check_sweep(n_cells):
    def check(out):
        read_json(out / "manifest.json")
        head, rows = read_csv(out / "sweep.csv")
        problems = [] if len(rows) == n_cells else [f"{len(rows)} cells, want {n_cells}"]
        for row in rows:
            B, verdict = float(row[0]), row[2]
            if verdict != ("Trapped" if B <= 1.0 else "Oscillatory"):
                problems.append(f"B = {B!r} classified {verdict}")
                break
        return problems, {}
    return check


def _check_points(name, n_points):
    def check(out):
        read_json(out / "manifest.json")
        _, rows = read_csv(out / name)
        problems = [] if len(rows) == n_points else [f"{len(rows)} points, want {n_points}"]
        if not all(math.isfinite(float(row[2])) for row in rows):
            problems.append("non-finite kernel value")
        return problems, {}
    return check


def _check_conserve(symmetric):
    def check(out):
        read_json(out / "manifest.json")
        payload = read_json(out / "conservation.json")
        v = payload["relative_violation"]
        problems = [] if (not symmetric or v < 1e-10) else [f"violation {v:.2e}"]
        return problems, {"relative_violation": v}
    return check


def _check_parses(*names):
    def check(out):
        for name in names:
            (read_csv if name.endswith(".csv") else read_json)(out / name)
        return [], {}
    return check


def _check_lattice(omega0):
    def check(out):
        read_json(out / "manifest.json")
        _, rows = read_csv(out / "scatter_set.csv")
        problems = [] if rows else ["empty scatter set"]
        for row in rows:
            if not abs(float(row[4]) + omega0 * omega0) <= 1e-8 * omega0 * omega0:
                problems.append(f"k.k = {row[4]} off the mass shell")
                break
        return problems, {"count": len(rows)}
    return check


def cli_round(rng, work, jobs):
    items = []
    # two bragg-sweeps of 100 x 100 cells: one serial, one on every core
    for j, n_jobs in enumerate((1, jobs)):
        lo, hi = rng.uniform(0.0, 0.5), rng.uniform(2.5, 3.0)
        items.append(cli_item(
            "kind1", f"bragg-sweep jobs={n_jobs}",
            ["bragg-sweep", "--ratio", f"{_f(lo)}:{_f(hi)}:100",
             "--phi", f"0:{_f(rng.uniform(5.5, TWO_PI))}:100", "--jobs", str(n_jobs)],
            work / f"sweep{j}", _check_sweep(10_000)))
    # greens-eval scans inside the light cone: quadrature and stationary phase
    # the retarded kernel: the advanced one is zero inside the forward cone
    kind = "retarded"
    r_lo, t_lo = rng.uniform(1.0, 2.0), rng.uniform(10.0, 12.0)
    items.append(cli_item(
        "kind2", "greens-eval quadrature",
        ["greens-eval", "--r", f"{_f(r_lo)}:{_f(r_lo + 6)}:8",
         "--t", f"{_f(t_lo)}:{_f(t_lo + 30)}:10", "--kind", kind,
         "--omega-hat", _f(rng.uniform(0.8, 1.2)), "--method", "quadrature"],
        work / "greens0", _check_points("kernel_scan.csv", 80)))
    cfg = write_config(work / "inputs" / "greens.cfg", {
        "r": f"{_f(r_lo)}:{_f(r_lo + 6)}:40", "t": f"{_f(t_lo)}:{_f(t_lo + 30)}:50",
        "kind": kind, "method": "stationary"})
    items.append(cli_item(
        "kind2", "greens-eval stationary", ["greens-eval", "--config", cfg],
        work / "greens1", _check_points("kernel_scan.csv", 2000)))
    for j, kernel in enumerate(("symmetric", "retarded")):
        items.append(cli_item(
            "kind3", f"greens-conserve {kernel}",
            ["greens-conserve", "--kind", kernel, "--samples", "300",
             "--sigma", _f(rng.uniform(0.3, 0.5)),
             "--separation", _f(rng.uniform(3.5, 4.5)),
             "--speed", _f(rng.uniform(0.2, 0.4))],
            work / f"conserve{j}", _check_conserve(kernel == "symmetric")))
    items.append(cli_item("kind4", "algebra-check", ["algebra-check"],
                          work / "algebra", _check_parses("algebra_report.json",
                                                          "manifest.json")))
    # the incident wave sits on the mass shell to full precision
    omega0 = float(_f(rng.uniform(0.8, 1.2)))
    k3 = [float(_f(v)) for v in rng.uniform(-1.0, 1.0, 3)]
    k4 = math.sqrt(sum(v * v for v in k3) + omega0 * omega0)
    items.append(cli_item(
        "kind4", "bragg-lattice 3-D",
        ["bragg-lattice", "--ki=" + ",".join(repr(v) for v in (*k3, k4)),
         "--fundamental=" + ",".join(_f(v) for v in rng.uniform(0.5, 1.5, 3)),
         "--fundamental=" + ",".join(_f(v) for v in rng.uniform(0.5, 1.5, 3)),
         "--omega0", repr(omega0), "--dimensionality", "3"],
        work / "lattice", _check_lattice(omega0)))
    cfg = write_config(work / "inputs" / "variance.cfg", {
        "n1": _f(rng.uniform(0.5, 2.0)), "n2": _f(rng.uniform(0.0, 1.0)),
        "kprime": _f(rng.uniform(0.1, 1.0)), "mu1": _f(rng.uniform(0.0, 0.2)),
        "mu2": _f(rng.uniform(0.0, 0.2)), "samples": "400"})
    items.append(cli_item("kind4", "orbit-variance", ["orbit-variance", "--config", cfg],
                          work / "variance", _check_parses("variances.csv",
                                                           "manifest.json")))
    cfg = write_config(work / "inputs" / "calibrate.cfg", {
        "a-sq": _f(rng.uniform(1.0, 3.0)), "beta": _f(rng.uniform(0.5, 1.0)),
        "m-core": _f(rng.uniform(0.1, 0.5)), "k5": _f(rng.uniform(1.0, 2.0)),
        "gprime": _f(rng.uniform(1.5, 3.0))})
    items.append(cli_item("kind4", "calibrate", ["calibrate", "--config", cfg],
                          work / "calibrate", _check_parses("constants.json",
                                                            "manifest.json")))
    items.append(cli_item(
        "kind4", "bragg-classify",
        # a trapped cell well below the threshold (B = E0 - sin(phi) < -0.05):
        # an oscillatory one costs several times more, and one with phi near
        # pi (B near 0) about 40% more
        ["bragg-classify", "--E0", _f(rng.uniform(0.1, 0.5)), "--gamma", "1",
         "--phi", _f(rng.uniform(0.6, 2.5)), "--omega0", "1", "--s-max", "60"],
        work / "classify", _check_parses("trajectory.csv", "classification.json",
                                         "manifest.json")))
    items.append(cli_item(
        "kind4", "orbit-drift",
        ["orbit-drift", "--c1", "-1", "--c2", "0.5", "--c3", "0.25",
         "--delta-r0", _f(rng.uniform(-0.5, 2.0)), "--t-max", "200"],
        work / "drift", _check_parses("drift_path.csv", "phase_portrait.csv",
                                      "manifest.json")))
    # seeded phases with arg(A2 A12) fixed, as in the trajectories workload
    a2 = _polar(0.4, rng)
    theta = THREEMODE_PHASE - np.angle(a2)
    a12 = 0.35 * complex(math.cos(theta), math.sin(theta))
    items.append(cli_item(
        "kind4", "orbit-threemode",
        ["orbit-threemode", "--a2", repr(a2), "--a12", repr(a12), "--k", "0.5",
         "--t-max", "10", "--samples", "200"],
        work / "threemode", _check_parses("threemode.csv", "manifest.json")))
    # play order: each half of the round holds every kind, as in trajectories
    return [items[k] for k in (0, 2, 4, 6, 7, 8, 1, 3, 5, 9, 10, 11, 12)]


def tree_bytes(root):
    """{relative path: bytes} of every file under root."""
    root = Path(root)
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def src_lines():
    base = Path(metronlab.__file__).parent
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(base.rglob("*.py")))


def warm_up():
    """Finish the library's lazy imports before the first timed item."""
    importlib.import_module("scipy.linalg")
