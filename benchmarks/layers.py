"""Which alphaflow functions the traced run wraps, and the per-layer metrics.

Span names are ``<layer>.<what>``; the layers are alphaflow's modules.
Per-layer figures are per workload unit (median over traced units) unless
the name says otherwise; a layer a workload never calls reads 0.
"""

from __future__ import annotations

import alphaflow.abstract_ode as abstract_ode
import alphaflow.checkpoint as checkpoint
import alphaflow.dissipative as dissipative
import alphaflow.fields as fields
import alphaflow.gronwall as gronwall
import alphaflow.operators as operators
import alphaflow.reporting as reporting
import alphaflow.solver as solver
import alphaflow.spectral as sp
from tracing import Tracer, median, self_times, tail_percentile

FUNCTIONS = (
    (sp.to_spectral, "spectral.fwd", "transform"),
    (sp.to_real, "spectral.inv", "transform"),
    (sp.leray_project, "spectral.project", "call"),
    (sp.dealias, "spectral.dealias", "call"),
    (sp.sobolev_inner, "spectral.norm", "call"),
    (sp.alpha_inner, "spectral.norm", "call"),
    (fields.random_divfree, "fields.random", "call"),
    (fields.random_stress, "fields.random", "call"),
    (solver.initial_condition, "fields.init", "call"),
    (solver.run, "solver.run", "call"),
    (solver._diag_sample, "solver.diag", "call"),
    (operators.commutator_hat, "operators.commutator", "call"),
    (operators.stress_divergence, "operators.stress_divergence", "call"),
    (operators.momentum_residual, "operators.residual", "call"),
    (operators.stress_residual, "operators.residual", "call"),
    (operators.gronwall_weight, "operators.weight", "call"),
    (gronwall.exponential_bound, "gronwall.bound", "call"),
    (dissipative.inequality_margin, "dissipative.margin", "call"),
    (dissipative.calibrate_gamma, "dissipative.gamma", "call"),
    (checkpoint.write_trajectory, "checkpoint.write", "call"),
    (checkpoint.read_trajectory, "checkpoint.read", "call"),
    (reporting.write_check_report, "reporting.write", "call"),
    (abstract_ode.integrate, "abstract_ode.integrate", "call"),
    (abstract_ode.dissipative_margin, "abstract_ode.margin", "call"),
    (abstract_ode.apriori_bound_holds, "abstract_ode.apriori", "call"),
)

METHODS = (
    (solver.Stepper, "explicit_rhs", "solver.rhs"),
    (solver.Stepper, "step", "solver.step"),
    (operators.TestPair, "from_trajectory", "operators.fit"),
)

MODES = ("self", "zero", "pair")

#: per-layer metric name -> unit, in report order
UNITS = {
    "spectral.fft_fwd_per_rhs": "count",
    "spectral.fft_inv_per_rhs": "count",
    "spectral.fft_busy_s": "s",
    "spectral.fft_bytes_per_step": "B",
    "spectral.project_dealias_busy_s": "s",
    "spectral.norm_busy_s": "s",
    "solver.rhs_busy_s": "s",
    "solver.rhs_self_s": "s",
    "solver.rhs_calls": "count",
    "solver.step_ms_p50": "ms",
    "solver.step_ms_ptail": "ms",
    "solver.step_ptail_level": "%",
    "solver.step_samples": "count",
    "solver.diag_busy_s": "s",
    "solver.snapshot_bytes": "B",
    "fields.random_busy_s": "s",
    "fields.init_s": "s",
    "operators.residual_busy_s": "s",
    "operators.residual_calls": "count",
    **{f"operators.residual_fft_per_snapshot.{m}": "count" for m in MODES},
    "operators.weight_busy_s": "s",
    "operators.fit_s": "s",
    "dissipative.margin_busy_s": "s",
    "dissipative.margin_self_s": "s",
    **{f"dissipative.ms_per_snapshot.{m}": "ms" for m in MODES},
    "dissipative.check_snapshots_per_s": "1/s",
    "dissipative.gamma_s": "s",
    "gronwall.bound_busy_s": "s",
    "gronwall.bound_calls": "count",
    "checkpoint.write_s": "s",
    "checkpoint.read_s": "s",
    "checkpoint.bytes": "B",
    "checkpoint.write_mb_per_s": "MB/s",
    "checkpoint.read_mb_per_s": "MB/s",
    "reporting.write_s": "s",
    "abstract_ode.integrate_busy_s": "s",
    "abstract_ode.rhs_calls": "count",
    "abstract_ode.margin_busy_s": "s",
    "abstract_ode.apriori_busy_s": "s",
    "abstract_ode.callable_calls_per_sample": "count",
    "trace.overhead_pct": "%",
    "trace.spans_per_unit": "count",
}

TRANSFORMS = frozenset({"spectral.fwd", "spectral.inv"})
SETUP_RUN = -1  # run id of the spans recorded while building the inputs


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Unit:
    """Span queries restricted to one run id."""

    def __init__(self, tracer: Tracer, own_self: list[float], run_id: int):
        self.t = tracer
        self.own_self = own_self
        self.idx = [i for i, r in enumerate(tracer.runs) if r == run_id]

    def spans(self, names) -> list[int]:
        return [i for i in self.idx if self.t.names[i] in names]

    def seconds(self, i: int) -> float:
        return (self.t.ends[i] - self.t.starts[i]) * 1e-9

    def busy(self, *names) -> float:
        """Time in the named spans, not counting ones nested inside another of them."""
        names = frozenset(names)
        return sum(self.seconds(i) for i in self.spans(names)
                   if self.t.ancestor_in(i, names) < 0)

    def self_s(self, *names) -> float:
        return sum(self.own_self[i] for i in self.spans(frozenset(names))) * 1e-9

    def count(self, *names) -> int:
        return len(self.spans(frozenset(names)))

    def under(self, names, ancestor: str) -> list[int]:
        """Spans in ``names`` with an ancestor called ``ancestor``."""
        target = frozenset({ancestor})
        return [i for i in self.spans(frozenset(names)) if self.t.ancestor_in(i, target) >= 0]


def unit_metrics(tracer: Tracer, own_self: list[float], run_id: int, facts: dict) -> dict:
    """Per-layer figures of one traced unit (step percentiles are pooled later)."""
    u = _Unit(tracer, own_self, run_id)
    t = tracer
    m = {}
    rhs_calls = u.count("solver.rhs")
    steps = u.count("solver.step")
    m["spectral.fft_fwd_per_rhs"] = _ratio(
        sum(t.transforms[i] for i in u.under({"spectral.fwd"}, "solver.rhs")), rhs_calls)
    m["spectral.fft_inv_per_rhs"] = _ratio(
        sum(t.transforms[i] for i in u.under({"spectral.inv"}, "solver.rhs")), rhs_calls)
    m["spectral.fft_busy_s"] = u.busy(*TRANSFORMS)
    m["spectral.fft_bytes_per_step"] = _ratio(
        sum(t.nbytes[i] for i in u.under(TRANSFORMS, "solver.step")), steps)
    m["spectral.project_dealias_busy_s"] = u.busy("spectral.project", "spectral.dealias")
    m["spectral.norm_busy_s"] = u.busy("spectral.norm")
    m["solver.rhs_busy_s"] = u.busy("solver.rhs")
    m["solver.rhs_self_s"] = u.self_s("solver.rhs")
    m["solver.rhs_calls"] = rhs_calls
    m["solver.diag_busy_s"] = u.busy("solver.diag")
    m["solver.snapshot_bytes"] = facts.get("snapshot_bytes", 0)
    m["fields.random_busy_s"] = u.busy("fields.random")
    m["operators.residual_busy_s"] = u.busy("operators.residual")
    m["operators.residual_calls"] = u.count("operators.residual")
    m["operators.weight_busy_s"] = u.busy("operators.weight")
    m["operators.fit_s"] = u.busy("operators.fit")
    m["dissipative.margin_busy_s"] = u.busy("dissipative.margin")
    m["dissipative.margin_self_s"] = u.self_s("dissipative.margin")
    snapshots = facts.get("snapshots_checked", {})
    residual = frozenset({"operators.residual"})
    for mode in MODES:
        n_snap = snapshots.get(mode, 0)
        phase = "phase.check." + mode
        ffts = sum(t.transforms[i] for i in u.under(TRANSFORMS, phase)
                   if t.ancestor_in(i, residual) >= 0)
        m[f"operators.residual_fft_per_snapshot.{mode}"] = _ratio(ffts, n_snap)
        margin_s = sum(u.seconds(i) for i in u.under({"dissipative.margin"}, phase))
        m[f"dissipative.ms_per_snapshot.{mode}"] = _ratio(1e3 * margin_s, n_snap)
    m["dissipative.check_snapshots_per_s"] = _ratio(sum(snapshots.values()),
                                                    m["dissipative.margin_busy_s"])
    m["dissipative.gamma_s"] = u.busy("dissipative.gamma")
    m["gronwall.bound_busy_s"] = u.busy("gronwall.bound")
    m["gronwall.bound_calls"] = u.count("gronwall.bound")
    m["checkpoint.write_s"] = u.busy("checkpoint.write")
    m["checkpoint.read_s"] = u.busy("checkpoint.read")
    nbytes = facts.get("checkpoint_bytes", 0)
    m["checkpoint.bytes"] = nbytes
    m["checkpoint.write_mb_per_s"] = _ratio(nbytes / 1e6, m["checkpoint.write_s"])
    m["checkpoint.read_mb_per_s"] = _ratio(nbytes / 1e6, m["checkpoint.read_s"])
    m["reporting.write_s"] = u.busy("reporting.write")
    m["abstract_ode.integrate_busy_s"] = u.busy("abstract_ode.integrate")
    m["abstract_ode.rhs_calls"] = t.calls.get((run_id, "abstract_ode.integrate"), 0)
    m["abstract_ode.margin_busy_s"] = u.busy("abstract_ode.margin")
    m["abstract_ode.apriori_busy_s"] = u.busy("abstract_ode.apriori")
    m["abstract_ode.callable_calls_per_sample"] = _ratio(
        t.calls.get((run_id, "abstract_ode.margin"), 0), facts.get("margin_samples", 0))
    m["trace.spans_per_unit"] = len(u.idx)
    return m


def layer_metrics(tracer: Tracer, traced: list[tuple[int, dict]], traced_walls: list[float],
                  plain_walls: list[float]) -> dict:
    """All per-layer metrics: medians over traced units, pooled step percentiles."""
    own_self = self_times(tracer.starts, tracer.ends, tracer.parents)
    per_unit = [unit_metrics(tracer, own_self, run_id, facts) for run_id, facts in traced]
    out = {name: median([pu[name] for pu in per_unit]) for name in per_unit[0]}

    setup = _Unit(tracer, own_self, SETUP_RUN)
    out["fields.init_s"] = setup.busy("fields.init")

    traced_ids = {run_id for run_id, _ in traced}
    step_ms = [(tracer.ends[i] - tracer.starts[i]) * 1e-6
               for i, name in enumerate(tracer.names)
               if name == "solver.step" and tracer.runs[i] in traced_ids]
    tail = tail_percentile(step_ms)
    out["solver.step_ms_p50"] = median(step_ms) if step_ms else 0.0
    out["solver.step_ms_ptail"] = tail[1] if tail else 0.0
    out["solver.step_ptail_level"] = tail[0] if tail else 0.0
    out["solver.step_samples"] = len(step_ms)
    out["trace.overhead_pct"] = 100.0 * (median(traced_walls) / median(plain_walls) - 1.0)
    return {name: out[name] for name in UNITS}
