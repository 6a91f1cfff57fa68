"""alphaflow benchmark: one workload, closed loop, checked outputs, one JSON result line.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload solve-2d --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced units and prints the per-layer metrics, with the tracing
overhead.  The last line of standard output is the result object; a full
record (environment, every unit) goes to ``.bench_out/`` in the checkout.
See ``benchmarks/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer, instrument, median, quantile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("solve-2d", "solve-3d", "verify-2d", "ode-suite")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_UNITS = 2  # plain units in an untraced run
MIN_UNITS_TRACED = 2  # of each kind in a traced run
CHILD_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s",
                    "peak_rss_mb": "MB", "energy_law_c": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    return nproc


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, nproc: int) -> dict:
    import numpy
    import scipy

    return {"nproc": nproc, "cpu": _cpu_model(), "cache": _cache_sizes(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": nproc, "seed": args.seed,
            "traced": bool(args.trace), "workload": args.workload}


def time_setup(workload: str, seed: int) -> float:
    """Spawn-to-exit time of a fresh interpreter that imports and builds the inputs."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "setup_child.py"), workload, str(seed)],
                          cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return elapsed


class Phases:
    """``with phases(name):`` times a block of a unit (and records it as a span).

    ``pieces`` lists (name, seconds) in call order; a unit makes the same
    calls in the same order every time, so pieces line up across units.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.pieces: list[tuple[str, float]] = []

    @contextlib.contextmanager
    def __call__(self, name: str):
        span = self.tracer.span("phase." + name) if self.tracer else contextlib.nullcontext()
        with span:
            start = time.perf_counter()
            try:
                yield
            finally:
                self.pieces.append((name, time.perf_counter() - start))


def measure(args, workload, ctx, traced_ctx, tracer) -> list[dict]:
    """Closed loop: each unit starts when the previous one ends, until time is up.

    In a traced run, even-numbered units are plain and odd ones traced, so
    both kinds see the same machine state.
    """
    import layers

    units = []
    start = time.perf_counter()
    while True:
        n_plain = sum(1 for u in units if not u["traced"])
        n_traced = len(units) - n_plain
        if args.trace:
            enough = min(n_plain, n_traced) >= MIN_UNITS_TRACED
        else:
            enough = n_plain >= MIN_UNITS
        if enough and time.perf_counter() - start >= args.seconds:
            break
        traced = bool(args.trace) and len(units) % 2 == 1
        run_id = len(units)
        phases = Phases(tracer if traced else None)
        unit_ctx = traced_ctx if traced else ctx
        t0 = time.perf_counter()
        if traced:
            tracer.run_id = run_id
            with instrument(tracer, layers.FUNCTIONS, layers.METHODS):
                with tracer.span("unit"):
                    out, facts = workload.unit(unit_ctx, phases)
        else:
            out, facts = workload.unit(unit_ctx, phases)
        wall = time.perf_counter() - t0
        checks, law_c = workload.check(unit_ctx, out)
        del out
        units.append({"run_id": run_id, "traced": traced, "wall_s": wall,
                      "pieces": phases.pieces, "facts": facts, "checks": checks,
                      "energy_law_c": law_c})
    return units


def fast_quartile_time(units: list[dict], only: str | None = None) -> float:
    """Sum over a unit's pieces of each piece's lower quartile across units.

    Piece k of every unit is the same call on the same inputs, so this
    estimates the unit's time on an unloaded host; see README, "Noise".
    With ``only``, just the pieces of that name; otherwise also the time
    outside every piece.
    """
    columns = list(zip(*[u["pieces"] for u in units]))
    total = sum(quantile([sec for _, sec in col], 0.25) for col in columns
                if only is None or col[0][0] == only)
    if only is None:
        total += quantile([u["wall_s"] - sum(sec for _, sec in u["pieces"]) for u in units],
                          0.25)
    return total


def end_to_end(units: list[dict], setup_times: list[float]) -> dict:
    plain = [u for u in units if not u["traced"]]
    return {
        "setup_s": median(setup_times),
        "wall_s": fast_quartile_time(plain),
        "steps_per_s": plain[0]["facts"]["steps"]
        / fast_quartile_time(plain, plain[0]["facts"]["step_phase"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "energy_law_c": median([u["energy_law_c"] for u in plain]),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "alphaflow" / "__init__.py").is_file():
        print(f"benchmark: no alphaflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    env = environment(args, nproc)
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # set-up time is an end-to-end metric, so traced runs skip the probes
        setup_times = [] if args.trace else [time_setup(args.workload, args.seed)
                                             for _ in range(SETUP_REPEATS)]
        ctx = workload.build(args.seed)
        ctx.workdir = str(workdir)
        tracer = traced_ctx = None
        if args.trace:
            tracer = Tracer()
            tracer.run_id = layers.SETUP_RUN
            with instrument(tracer, layers.FUNCTIONS, layers.METHODS):
                traced_ctx = workload.build(args.seed, wrap=tracer.counter)
            traced_ctx.workdir = str(workdir)
        workload.warm(ctx)
        units = measure(args, workload, ctx, traced_ctx, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(u["checks"]) for u in units)
    failed = sum(1 for u in units for ok in u["checks"].values() if not ok)
    if args.trace:
        plain = [u["wall_s"] for u in units if not u["traced"]]
        traced = [u["wall_s"] for u in units if u["traced"]]
        values = layers.layer_metrics(
            tracer, [(u["run_id"], u["facts"]) for u in units if u["traced"]], traced, plain)
        metric_units = layers.UNITS
    else:
        values = end_to_end(units, setup_times)
        metric_units = END_TO_END_UNITS
    metrics = {name: {"value": float(values[name]), "unit": metric_units[name]}
               for name in metric_units}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "setup_s_samples": setup_times, "units": units,
              "metrics": metrics, "attempted": attempted, "failed": failed}
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    if tracer is not None:
        tracer.write_csv(out_dir / f"{tag}-spans.csv")

    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    for u in units:
        for check, ok in u["checks"].items():
            if not ok:
                print(f"FAILED unit {u['run_id']}: {check}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
