"""metronlab benchmark: one workload per run, closed loop, checked items.

    python3 bench/run.py --workload {solve,trajectories,cli} --seed N \
        --seconds S --trace {0,1}

Run from a checkout that holds ``src/metronlab``.  The seed makes the
inputs; the round of items they form is repeated back to back until S
seconds have been measured (at least one round; two for ``cli`` so every
command's outputs are compared byte for byte; four for ``trajectories``).
Each item is timed with ``time.perf_counter`` and checked afterwards; an
exception or a failed check counts as a failed operation.

Every part of a round is played by a fresh process of this script, which
sets itself up (imports, inputs, warm-up), times that set-up, plays its
items and prints its records.  ``--trace 0`` prints the end-to-end metrics.
``--trace 1`` plays every part under the span tracer and prints the
per-layer metrics; the parts it starts within the first S seconds it also
plays untraced just before, and it prints the tracing overhead as traced
minus untraced wall time of those parts.  The last
stdout line is the JSON result; the lines before it are information: the
environment, ``src_lines``, the physics values each item produced and the
workload's named metrics.  Records and spans go to ``.bench_run/``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up is timed from here, before numpy loads

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"  # pinned before numpy loads: at most nproc threads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
WORKLOADS = ("solve", "trajectories", "cli")
# rounds a run makes at least, however short --seconds is: two for cli, so
# its outputs are compared, and four for trajectories, whose short items
# spread by 25-30% between runs when a single round set the figures
MIN_ROUNDS = {"solve": 1, "trajectories": 4, "cli": 2}
# the end-to-end slot each item kind feeds, named per workload
KIND_NAMES = {
    "solve": {"kind1": "mode0_solve_s", "kind2": "excited_solve_s",
              "kind3": "fifth_solve_s", "kind4": "multimode_solve_s"},
    "trajectories": {"kind1": "verdict_cell_s", "kind2": "grid_integrate_s",
                     "kind3": "drift_start_s", "kind4": "threemode_s"},
    "cli": {"kind1": "bragg_sweep_s", "kind2": "greens_eval_s",
            "kind3": "greens_conserve_s", "kind4": "other_command_s"},
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--part", type=int, default=None,
                   help="play one part of a round and print its records")
    p.add_argument("--work", default=None, help="with --part: the output directory")
    p.add_argument("--spans", default=None,
                   help="with --part and --trace 1: where to write the spans")
    p.add_argument("--first", action="store_true",
                   help="with --part: keep the outputs for later rounds")
    return p.parse_args(argv)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def set_up(args, work):
    """Imports, input generation and warm-up: everything before item one."""
    if not (SRC / "metronlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no metronlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy as np
    import workloads

    rng = np.random.default_rng(args.seed)
    rhs_stats = {"evals": 0, "steps": 0}
    if args.workload == "solve":
        items = workloads.solve_round(rng, work)
    elif args.workload == "trajectories":
        items = workloads.trajectories_round(rng, rhs_stats)
    else:
        items = workloads.cli_round(rng, work, nproc())
    workloads.warm_up()
    return workloads, items, rhs_stats


def play_part(args):
    """Child process: set up, play part ``args.part`` of the round, report."""
    workloads, items, rhs_stats = set_up(args, Path(args.work))
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    setup_s = time.perf_counter() - T_START
    records = []  # (item index, seconds, problems, physics)
    sink = io.StringIO()  # the commands' one-line summaries
    for idx in part_indices(items, args.part):
        item = items[idx]
        if item.out_dir is not None and Path(item.out_dir).exists():
            shutil.rmtree(item.out_dir)
        if tracer is not None:
            tracer.item = idx
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                out = item.call()
            error = None
        except (Exception, SystemExit) as exc:  # a failed operation
            out, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        if error is None:
            try:
                problems, physics = item.check(out)
            except Exception as exc:  # unreadable output fails the item
                problems, physics = [f"check: {type(exc).__name__}: {exc}"], {}
        else:
            problems, physics = [error], {}
        if item.out_dir is not None and error is None:
            problems += same_as_first(workloads, item, args.first)
        records.append((idx, dt, problems, physics))
    if tracer is not None:
        tracer.dump(args.spans)
    print(json.dumps({"setup_s": setup_s, "records": records, "rhs": rhs_stats}))
    return 0


def part_indices(items, part):
    """Indices of the items one process of the round plays, in play order."""
    return [idx for idx, item in enumerate(items) if item.part == part]


def same_as_first(workloads, item, first):
    """Outputs of a repeated CLI item must match its first run byte for byte."""
    kept = Path(str(item.out_dir) + ".first")
    if first:
        if kept.exists():
            shutil.rmtree(kept)
        shutil.move(str(item.out_dir), str(kept))
        return []
    if workloads.tree_bytes(item.out_dir) != workloads.tree_bytes(kept):
        return ["outputs differ from the first run of the same item"]
    return []


class Play:
    """One part of one round, played by a child process."""

    def __init__(self, rnd, part, traced, setup_s, records, rhs, spans_file):
        self.rnd = rnd
        self.part = part
        self.traced = traced
        self.setup_s = setup_s
        self.records = records
        self.rhs = rhs
        self.spans_file = spans_file

    @property
    def wall(self):
        return sum(r[1] for r in self.records)


def play_in_child(args, work, items, rnd, part, traced, first):
    spans_file = work / f"spans-r{rnd}-p{part}.json" if traced else None
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(int(traced)),
           "--part", str(part), "--work", str(work)]
    if spans_file is not None:
        cmd += ["--spans", str(spans_file)]
    if first:
        cmd.append("--first")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        out = None
    if proc.returncode != 0 or out is None:  # every item of the part fails
        if "error: no metronlab sources" in proc.stderr:
            raise SystemExit(proc.stderr.strip())
        why = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        records = [(idx, 0.0, [f"part process exited {proc.returncode}: {why}"], {})
                   for idx in part_indices(items, part)]
        return Play(rnd, part, traced, None, records, {}, None)
    return Play(rnd, part, traced, out["setup_s"], [tuple(r) for r in out["records"]],
                out["rhs"], spans_file)


def run_rounds(args, work, items):
    """Closed loop over the round until --seconds and MIN_ROUNDS are met.

    A traced run plays every part under the tracer.  While --seconds have
    not passed, it also plays each part untraced just before, in the same
    way, so the two can be compared for the tracing overhead; the first
    part always gets this twin.
    """
    plays = []
    rnd = 0
    start = time.perf_counter()
    while True:
        for part in range(n_parts(items)):
            twin = not plays or time.perf_counter() - start < args.seconds
            for traced in ((False, True) if args.trace and twin else (bool(args.trace),)):
                first = not any(p.part == part for p in plays)
                plays.append(play_in_child(args, work, items, rnd, part, traced, first))
        rnd += 1
        if (time.perf_counter() - start >= args.seconds
                and rnd >= MIN_ROUNDS[args.workload]):
            return plays, rnd


def n_parts(items):
    return max(item.part for item in items) + 1


def tracing_overhead(plays):
    """[(traced, untraced) wall] of each part played both ways."""
    walls = {}
    for p in plays:
        walls.setdefault((p.rnd, p.part), {})[p.traced] = p.wall
    return [(w[True], w[False]) for w in walls.values() if len(w) == 2]


def round_walls(plays, traced):
    walls = {}
    for p in plays:
        if p.traced == traced:
            walls[p.rnd] = walls.get(p.rnd, 0.0) + p.wall
    return [walls[r] for r in sorted(walls)]


def peak_rss_kb():
    """Largest resident set of the processes this run waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def median_of(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(args, items, plays):
    """The gated metrics plus the workload's named view of its four slots.

    A slot is the mean latency of one kind's items within a round (every
    round has the same mix), taken as the median over the run's rounds.
    """
    per_round = {}  # (round, kind) -> latencies
    latencies = []
    for p in plays:
        for idx, dt, _, _ in p.records:
            per_round.setdefault((p.rnd, items[idx].kind), []).append(dt)
            latencies.append(dt)
    m = {
        "setup_s": (median_of([p.setup_s for p in plays if p.setup_s is not None]), "s"),
        "wall_s": (median_of(round_walls(plays, False)), "s"),
        "item_p50_s": (median_of(latencies), "s"),
        "peak_rss_mb": (peak_rss_kb() / 1024.0, "MB"),
    }
    for kind in ("kind1", "kind2", "kind3", "kind4"):
        means = [statistics.fmean(v) for (_, k), v in per_round.items() if k == kind]
        m[f"{kind}_s"] = (median_of(means), "s")
    named = {KIND_NAMES[args.workload][k]: m[f"{k}_s"] for k in KIND_NAMES[args.workload]}
    if args.workload == "cli":
        records = [r for p in plays for r in p.records]
        sweeps = [dt for idx, dt, _, _ in records if items[idx].kind == "kind1"]
        evals = [(dt, 80 if "quadrature" in items[idx].label else 2000)
                 for idx, dt, _, _ in records if items[idx].kind == "kind2"]
        busy = sum(sweeps), sum(d for d, _ in evals)  # 0 when every play failed
        named["sweep_cells_per_s"] = (
            10_000 * len(sweeps) / busy[0] if busy[0] else float("nan"), "1/s")
        named["kernel_evals_per_s"] = (
            sum(n for _, n in evals) / busy[1] if busy[1] else float("nan"), "1/s")
    return m, named


def per_layer(spans, plays, rounds):
    """Per-layer metrics and per-item counts of the traced plays."""
    traced = [p for p in plays if p.traced and p.spans_file is not None]
    merged, absent = spans.merge([p.spans_file for p in traced])
    rhs = {"evals": sum(p.rhs.get("evals", 0) for p in traced),
           "steps": sum(p.rhs.get("steps", 0) for p in traced)}
    metrics = spans.layer_metrics(merged, rounds, rhs)
    return metrics, spans.item_counts(merged, rounds), absent, merged


def environment(workloads):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "src_lines": workloads.src_lines(),
    }


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.part is not None:
        return play_part(args)
    work = OUT / f"work-{os.getpid()}"
    try:
        # the parent makes the same inputs as its children, for the labels
        # and kinds of the items, and to fail early on a broken checkout
        workloads, items, _ = set_up(args, work)
        work.mkdir(parents=True, exist_ok=True)
        plays, rounds = run_rounds(args, work, items)
        if args.trace:
            import spans

            metrics, counts, absent, merged = per_layer(spans, plays, rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = sorted((r for p in plays for r in p.records), key=lambda r: r[0])
    failed = sum(1 for r in records if r[2])
    env = environment(workloads)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "rounds": rounds, "items_per_round": len(items), "environment": env}
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"rounds: {rounds} of {len(items)} items in {n_parts(items)} part(s); "
          f"{len(records)} attempted, {failed} failed")
    first = {}
    for idx, dt, _, physics in records:
        first.setdefault(idx, (dt, physics))
    for idx, (dt, physics) in sorted(first.items()):
        print(f"item {idx} {items[idx].label}: {dt:.4f} s "
              f"{json.dumps(physics, sort_keys=True)}")
    for idx, _, problems, _ in records:
        for p in problems:
            print(f"FAILED item {idx} {items[idx].label}: {p}", file=sys.stderr)
    info["items"] = [{"label": items[i].label, "seconds": dt, "problems": pr,
                      "physics": ph} for i, dt, pr, ph in records]

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}"
    if args.trace:
        info["absent_layers"] = absent
        info["item_counts"] = counts
        if absent:
            print(f"absent layers: {', '.join(absent)}")
        for idx in sorted(counts):
            print(f"counts item {idx} {items[idx].label}: "
                  f"{json.dumps(counts[idx], sort_keys=True)}")
        metrics["bench.traced_wall_s"] = (median_of(round_walls(plays, True)), "s")
        pairs = tracing_overhead(plays)
        diffs = [t - u for t, u in pairs]
        traced, untraced = sum(t for t, _ in pairs), sum(u for _, u in pairs)
        info["trace_overhead_s"] = diffs
        share = f"{traced / untraced - 1:+.1%}" if untraced > 0 else "n/a"
        print(f"tracing overhead (traced minus untraced wall of the same part, each "
              f"played by its own process, back to back): {traced - untraced:+.4f} s "
              f"({share}) over {len(pairs)} part(s), per part "
              f"{min(diffs):+.4f}..{max(diffs):+.4f} s; untraced {untraced:.4f} s")
        Path(f"{stem}-spans.json").write_text(json.dumps({
            "fields": ["id", "parent", "name", "item", "start", "end", "error", "attrs"],
            "absent": absent, "spans": merged}), encoding="utf-8")
    else:
        metrics, named = end_to_end(args, items, plays)
        print(f"item_p50_s over {len(records)} items: {metrics['item_p50_s'][0]:.6g} s")
        for name, (value, unit) in named.items():
            print(f"{name}: {value:.6g} {unit}")
        info["named_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}

    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info.update(result)
    Path(f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=1, sort_keys=True, default=str), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
