"""Metric definitions and how each is computed from one timed call.

``END_TO_END`` metrics come from untraced runs, ``PER_LAYER`` metrics
from the traced run. Each per-layer row names the end-to-end metric it
should move and the workloads it should move it on, so a later change
can predict which numbers move and which stay.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from qfbench import ledger

QM = ("water_raman", "peptide_df")
ALL = ("water_raman", "peptide_df", "waterbox_spectrum")
#: ledger flags a run whose fragment wall is less covered than this
ATTRIBUTION_FLOOR = 0.95


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str = ""
    on: tuple = ()


END_TO_END = (
    Metric("time_to_spectrum_s", "s", "lower"),
    Metric("cpu_s", "s", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
    Metric("setup_s", "s", "lower"),
)

T, CPU, RSS = "time_to_spectrum_s", "cpu_s", "peak_rss_mb"
PER_LAYER = (
    Metric("integrals.eri_deriv_s", "s", "lower", T, ("water_raman",)),
    Metric("integrals.eri_s", "s", "lower", T, ("water_raman",)),
    Metric("integrals.df_3c_deriv_s", "s", "lower", T, ("peptide_df",)),
    Metric("integrals.df_2c_deriv_s", "s", "lower", T, ("peptide_df",)),
    Metric("integrals.one_electron_s", "s", "lower", T, QM),
    Metric("integrals.hermite_coulomb_calls", "count", "lower",
           f"{T},{CPU}", QM),
    Metric("integrals.hermite_coulomb_s", "s", "lower", f"{T},{CPU}", QM),
    Metric("kernels.useful_flop_ratio", "ratio", "higher", CPU, QM),
    Metric("scf.setup_s", "s", "lower", T, QM),
    Metric("scf.df_build_s", "s", "lower", T, ("peptide_df",)),
    Metric("scf.cold_s", "s", "lower", T, QM),
    Metric("scf.seeded_s", "s", "lower", T, QM),
    Metric("scf.iterations", "count", "lower", T, QM),
    Metric("scf.iters_saved", "count", "higher", T, QM),
    Metric("dfpt.gradient_s", "s", "lower", T, QM),
    Metric("dfpt.gradient_calls", "count", "lower", T, QM),
    Metric("dfpt.cphf_s", "s", "lower", T, ("peptide_df",)),
    Metric("dfpt.cphf_iterations", "count", "lower", T, ("peptide_df",)),
    Metric("dfpt.points_per_s", "1/s", "higher", T, QM),
    Metric("pipeline.worker_utilization", "ratio", "higher", f"{T},{CPU}",
           QM),
    Metric("pipeline.dispatch_wait_s", "s", "lower", f"{T},{CPU}", QM),
    Metric("pipeline.rigid_rotations", "count", "higher", T,
           ("waterbox_spectrum",)),
    Metric("pipeline.rotate_s", "s", "lower", T, ("waterbox_spectrum",)),
    Metric("fragment.decompose_s", "s", "lower", T, ("waterbox_spectrum",)),
    Metric("fragment.pieces", "count", "lower", T, ("waterbox_spectrum",)),
    Metric("fragment.assemble_dense_s", "s", "lower", f"{T},{RSS}",
           ("waterbox_spectrum",)),
    Metric("fragment.assemble_sparse_s", "s", "lower", f"{T},{RSS}",
           ("waterbox_spectrum",)),
    Metric("spectra.lanczos_s", "s", "lower", T, ("waterbox_spectrum",)),
    Metric("spectra.lanczos_matvecs", "count", "lower", T,
           ("waterbox_spectrum",)),
    Metric("spectra.quadrature_s", "s", "lower", T, ("waterbox_spectrum",)),
    Metric("spectra.dense_s", "s", "lower", "none", QM),
    Metric("obs.trace_overhead_frac", "ratio", "lower", "none", ALL),
    Metric("obs.unattributed_frac", "ratio", "lower", "none", ALL),
)


def layer_values(delta: dict, outcome, wall_s: float) -> dict[str, float]:
    """Per-layer values of one traced call.

    ``delta`` is the counter registry's change over the call (the
    ledger's timers plus the program's own counters, from every
    process); ``wall_s`` is the call's wall time.
    """
    s = ledger.self_seconds
    n = ledger.calls
    useful = delta.get("kernels.useful_flops", 0)
    padded = delta.get("kernels.padded_flops", 0)
    fragment_s = delta.get(ledger.FRAGMENT_NS, 0) / 1e9
    if fragment_s > 0:
        # QM workloads: the share of fragment work no layer covers
        unattributed = delta.get(ledger.UNATTRIBUTED_NS, 0) / 1e9 / fragment_s
        busy_s = fragment_s
    else:
        # no fragment work: the share of the call's wall no layer covers
        busy_s = wall_s
        unattributed = max(0.0, 1.0 - ledger.layer_seconds(delta) / wall_s)
    tp = outcome.throughput
    executor_wall = tp.wall_s if tp is not None and tp.n_tasks else 0.0
    points = 2 * delta.get("hessian.coordinate_jobs", 0)
    return {
        "integrals.eri_deriv_s": s(delta, "integrals.eri_deriv"),
        "integrals.eri_s": s(delta, "integrals.eri"),
        "integrals.df_3c_deriv_s": s(delta, "integrals.df_3c_deriv"),
        "integrals.df_2c_deriv_s": s(delta, "integrals.df_2c_deriv"),
        "integrals.one_electron_s": s(delta, "integrals.one_electron"),
        "integrals.hermite_coulomb_calls": n(delta,
                                             "integrals.hermite_coulomb"),
        "integrals.hermite_coulomb_s": s(delta, "integrals.hermite_coulomb"),
        "kernels.useful_flop_ratio": useful / padded if padded else 0.0,
        "scf.setup_s": s(delta, "scf.setup"),
        "scf.df_build_s": s(delta, "scf.df_build"),
        "scf.cold_s": s(delta, "scf.cold"),
        "scf.seeded_s": s(delta, "scf.seeded"),
        "scf.iterations": delta.get("scf.iterations", 0),
        "scf.iters_saved": delta.get("scf.iters_saved", 0),
        "dfpt.gradient_s": s(delta, "dfpt.gradient"),
        "dfpt.gradient_calls": n(delta, "dfpt.gradient"),
        "dfpt.cphf_s": s(delta, "dfpt.cphf"),
        "dfpt.cphf_iterations": delta.get("cphf.iterations", 0),
        "dfpt.points_per_s": points / executor_wall if executor_wall else 0.0,
        "pipeline.worker_utilization": (tp.worker_utilization
                                        if executor_wall else 0.0),
        "pipeline.dispatch_wait_s": (
            executor_wall * tp.max_workers - fragment_s
            if executor_wall else 0.0),
        "pipeline.rigid_rotations": n(delta, "pipeline.rotate"),
        "pipeline.rotate_s": s(delta, "pipeline.rotate"),
        "fragment.decompose_s": s(delta, "fragment.decompose"),
        "fragment.pieces": len(outcome.pieces),
        "fragment.assemble_dense_s": s(delta, "fragment.assemble_dense"),
        "fragment.assemble_sparse_s": s(delta, "fragment.assemble_sparse"),
        "spectra.lanczos_s": s(delta, "spectra.lanczos"),
        "spectra.lanczos_matvecs": delta.get("lanczos.matvecs", 0),
        "spectra.quadrature_s": s(delta, "spectra.quadrature"),
        "spectra.dense_s": s(delta, "spectra.dense"),
        "obs.trace_overhead_frac": delta.get(ledger.OVERHEAD_NS, 0) / 1e9
        / busy_s,
        "obs.unattributed_frac": unattributed,
    }


def median_by_key(rows: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}
