"""Per-layer ledger of the traced run: self time and calls per layer.

The traced run wraps public calls of each layer, from this file, and
adds no span inside the program. A wrapper keeps a per-process stack,
so a layer's *self* time excludes the wrapped layers it calls (for
example ``hermite_coulomb_vec`` inside ``IntegralEngine.eri``).

Timers travel through the program's ``repro.obs`` counter registry as
integer nanoseconds. Pool workers are forked after the wrappers are in
place and already ship their counter deltas back with every task
(:func:`repro.obs.tracer.telemetry_shipment`), so work done in workers
lands in the parent's ledger with no extra plumbing.

Fragment work: ``fragment_response`` and ``coordinate_job`` are
*containers*. Time inside a container is fragment work, except the
time a container spends blocked on its displacement pool (the
``wait`` of :mod:`repro.dfpt.hessian`), which is dispatch, not work.
Container self time is fragment work no layer accounts for: the
``obs.unattributed_frac`` numerator.
"""

# qf-file: raw-clock — the benchmark times the program with its own clock

from __future__ import annotations

import functools
import importlib
import sys
import time

from repro.obs.counters import counters

PREFIX = "qfbench."
NS = PREFIX + "ns."
CALLS = PREFIX + "calls."
FRAGMENT_NS = PREFIX + "fragment_ns"
UNATTRIBUTED_NS = PREFIX + "unattributed_ns"
OVERHEAD_NS = PREFIX + "overhead_ns"

POOL_WAIT = "pipeline.pool_wait"
CONTAINERS = ("dfpt.fragment_response", "dfpt.coordinate_job")

#: layer -> public calls timed as that layer: ``module:attr`` for a
#: function (every loaded ``repro`` module binding it is rebound; one
#: loaded later imports the wrapper) or ``module:Class.method``
LAYERS: dict[str, tuple[str, ...]] = {
    "integrals.eri_deriv": (
        "repro.integrals.engine:IntegralEngine.eri_deriv",),
    "integrals.eri": ("repro.integrals.engine:IntegralEngine.eri",),
    "integrals.df_3c_deriv": (
        "repro.integrals.engine:IntegralEngine.three_center_deriv",),
    "integrals.df_2c_deriv": (
        "repro.integrals.engine:IntegralEngine.two_center_deriv",),
    "integrals.one_electron": tuple(
        f"repro.integrals.engine:IntegralEngine.{m}" for m in (
            "overlap", "kinetic", "nuclear", "dipole",
            "overlap_deriv", "kinetic_deriv", "nuclear_deriv")),
    "integrals.hermite_coulomb": (
        "repro.integrals.engine:hermite_coulomb_vec",),
    "scf.setup": ("repro.scf.rhf:RHF.__init__",),
    "scf.df_build": ("repro.scf.df:DensityFitting.__init__",),
    "scf.run": ("repro.scf.rhf:RHF.run",),
    "dfpt.gradient": ("repro.dfpt.gradient:gradient",),
    "dfpt.cphf": ("repro.dfpt.cphf:CPHF.run",),
    "dfpt.fragment_response": ("repro.dfpt.hessian:fragment_response",),
    "dfpt.coordinate_job": ("repro.dfpt.hessian:coordinate_job",),
    POOL_WAIT: ("repro.dfpt.hessian:wait",),
    "pipeline.rotate": ("repro.pipeline.rigid:rotate_response",),
    "fragment.decompose": ("repro.fragment.fragmenter:decompose_system",),
    "fragment.assemble_dense": ("repro.fragment.assembly:assemble_response",),
    "fragment.assemble_sparse": (
        "repro.fragment.assembly:assemble_sparse_hessian",),
    "spectra.lanczos": ("repro.spectra.lanczos:lanczos",),
    "spectra.quadrature": ("repro.spectra.gagq:quadrature_nodes_weights",),
    "spectra.dense": ("repro.spectra.raman:raman_spectrum_dense",),
}

# per-process state: the time spent in wrapped callees, one entry per
# open wrapped call
_stack: list[int] = []
_containers_open = 0


def _record(layer: str, self_ns: int, in_fragment: bool) -> None:
    reg = counters()
    reg.inc(NS + layer, self_ns)
    reg.inc(CALLS + layer)
    if in_fragment and layer != POOL_WAIT:
        reg.inc(FRAGMENT_NS, self_ns)
        if layer in CONTAINERS:
            reg.inc(UNATTRIBUTED_NS, self_ns)


def timed(fn, layer_of):
    """Wrap ``fn``; ``layer_of(args, kwargs)`` names the layer of a call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        global _containers_open
        t0 = time.perf_counter_ns()
        layer = layer_of(args, kwargs)
        container = layer in CONTAINERS
        in_fragment = container or _containers_open > 0
        _containers_open += container
        _stack.append(0)
        t1 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t2 = time.perf_counter_ns()
            callees_ns = _stack.pop()
            _containers_open -= container
            _record(layer, (t2 - t1) - callees_ns, in_fragment)
            t3 = time.perf_counter_ns()
            counters().inc(OVERHEAD_NS, (t1 - t0) + (t3 - t2))
            if _stack:
                # the caller's self time excludes this call and its
                # wrapper's own cost
                _stack[-1] += t3 - t0

    return wrapper


def _scf_layer(args, kwargs):
    """``RHF.run`` is cold without a guess density, seeded with one."""
    guess = args[1] if len(args) > 1 else kwargs.get("guess_density")
    return "scf.cold" if guess is None else "scf.seeded"


def install() -> list:
    """Wrap every layer's public calls; returns what :func:`uninstall`
    needs to restore them."""
    undo = []
    for layer, targets in LAYERS.items():
        layer_of = _scf_layer if layer == "scf.run" else (
            lambda _a, _k, _layer=layer: _layer)
        for target in targets:
            module_name, attr = target.split(":")
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                undo.append((cls, meth, original))
                setattr(cls, meth, timed(original, layer_of))
                continue
            original = getattr(module, attr)
            wrapped = timed(original, layer_of)
            if layer == POOL_WAIT:
                # only the displacement loop's wait, not the executor's
                undo.append((module, attr, original))
                setattr(module, attr, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "repro" or mod_name.startswith("repro.")) \
                        and getattr(mod, attr, None) is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def self_seconds(delta: dict, layer: str) -> float:
    return delta.get(NS + layer, 0) / 1e9


def calls(delta: dict, layer: str) -> int:
    return delta.get(CALLS + layer, 0)


def layer_seconds(delta: dict) -> float:
    """Self time of every layer (pool waits excluded), all processes."""
    return sum(v for k, v in delta.items()
               if k.startswith(NS) and k != NS + POOL_WAIT) / 1e9
