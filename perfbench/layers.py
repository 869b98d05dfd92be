"""Where the traced run wraps the codec, and how spans become per-layer metrics.

Every per-layer metric is a mean per operation of the traced run: per scan
(one encode plus its decode) on the encoding workloads, per valid frame
delivered and decoded on the stream.  ``synth.generate_scan.s`` is the
exception: it is per generated scan, taken from the traced set-up passes.
"""

from __future__ import annotations

import numpy as np

from tracer import Site

PER_LAYER = (
    ("encoder.encode_with_trace.s", "s"),
    ("encoder.variational_bound.calls", "count"),
    ("encoder.variational_bound.s", "s"),
    ("encoder.variational_bound.self_s", "s"),
    ("encoder.estep.proposals", "count"),
    ("encoder.estep.accepted", "count"),
    ("encoder.estep.accept_ratio", "ratio"),
    ("encoder.refine_inducing_swap.s", "s"),
    ("encoder.bound_grad_hyperparams.calls", "count"),
    ("encoder.bound_grad_hyperparams.s", "s"),
    ("encoder.bound_grad_hyperparams.self_s", "s"),
    ("encoder.solve_triangular_mn.s", "s"),
    ("encoder.optimize_hyperparams.s", "s"),
    ("encoder.mstep.iterations", "count"),
    ("encoder.mstep.accepted", "count"),
    ("encoder.mstep.bound_evals", "count"),
    ("encoder.mstep.useful_ratio", "ratio"),
    ("encoder.params_at_limit", "count"),
    ("encoder.final_bound_per_n", "nat"),
    ("kernel.kernel_matrix.calls", "count"),
    ("kernel.kernel_matrix.s", "s"),
    ("kernel.kernel_matrix.entries", "count"),
    ("kernel.kernel_matrix_grads.calls", "count"),
    ("kernel.kernel_matrix_grads.s", "s"),
    ("kernel.kernel_matrix_grads.entries", "count"),
    ("kernel.chol_with_jitter.calls", "count"),
    ("kernel.chol_with_jitter.s", "s"),
    ("kernel.chol_with_jitter.jittered", "count"),
    ("kernel.numerical_errors", "count"),
    ("decoder.decode.s", "s"),
    ("decoder.fit_base_gp.s", "s"),
    ("decoder.predict_surface.s", "s"),
    ("decoder.predict_surface.self_s", "s"),
    ("decoder.predict_surface.cells", "count"),
    ("decoder.solve_triangular.s", "s"),
    ("decoder.variance_threshold.s", "s"),
    ("decoder.sample_occupied.s", "s"),
    ("decoder.occupied_fraction", "ratio"),
    ("geometry.project_to_surface.s", "s"),
    ("geometry.samples_kept", "count"),
    ("geometry.samples_dropped", "count"),
    ("synth.generate_scan.s", "s"),
    ("wire.serialize.s", "s"),
    ("wire.deserialize.s", "s"),
    ("transport.frames", "count"),
    ("transport.bytes", "B"),
    ("transport.frames_rejected", "count"),
    ("transport.send_observation.s", "s"),
    ("transport.base_self_s", "s"),
    ("trace.encode_overhead", "ratio"),
    ("trace.decode_overhead", "ratio"),
)


def _entries(result, *args, **kwargs):
    return {"entries": result.size}


def _grad_entries(result, *args, **kwargs):
    return {"entries": result[0].size}


def _jittered(result, *args, **kwargs):
    return {"jittered": int(result[1] > 0)}


def _bound_value(result, *args, **kwargs):
    return {"value": result}


def _kept(result, cloud, *args, **kwargs):
    kept = result.shape[0]
    return {"kept": kept, "dropped": np.shape(cloud)[0] - kept}


def _mn_solve(a, b, *args, **kwargs):
    # the M x N solve in the bound pipeline; M x M and vector solves elsewhere
    if np.ndim(b) == 2 and np.shape(b)[1] != np.shape(a)[0]:
        return "encoder.solve_triangular_mn"
    return "encoder.solve_triangular"


def codec_sites(codec) -> list[Site]:
    """Every codec function a per-layer metric reads, at each caller's lookup."""
    enc, dec, tr = codec.encoder, codec.decoder, codec.transport
    return [
        Site(enc, "encode_with_trace", "encoder.encode_with_trace"),
        Site(enc, "project_to_surface", "geometry.project_to_surface", _kept),
        Site(enc, "refine_inducing_swap", "encoder.refine_inducing_swap"),
        Site(enc, "optimize_hyperparams", "encoder.optimize_hyperparams"),
        Site(enc, "variational_bound", "encoder.variational_bound", _bound_value),
        Site(enc, "bound_grad_hyperparams", "encoder.bound_grad_hyperparams"),
        Site(enc, "kernel_matrix", "kernel.kernel_matrix", _entries),
        Site(enc, "kernel_matrix_grads", "kernel.kernel_matrix_grads", _grad_entries),
        Site(enc, "chol_with_jitter", "kernel.chol_with_jitter", _jittered),
        Site(enc, "solve_triangular", "encoder.solve_triangular", rename=_mn_solve),
        # the two below only shape the bound functions' self_s
        Site(enc, "cholesky", "encoder.cholesky"),
        Site(enc, "cho_solve", "encoder.cho_solve"),
        Site(dec, "decode", "decoder.decode"),
        Site(dec, "fit_base_gp", "decoder.fit_base_gp"),
        Site(dec, "predict_surface", "decoder.predict_surface",
             lambda result, *a, **k: {"cells": result.grid.shape[0]}),
        Site(dec, "variance_threshold", "decoder.variance_threshold"),
        Site(dec, "sample_occupied", "decoder.sample_occupied",
             lambda result, *a, **k: {"occupied": result.shape[0]}),
        Site(dec, "kernel_matrix", "kernel.kernel_matrix", _entries),
        Site(dec, "chol_with_jitter", "kernel.chol_with_jitter", _jittered),
        Site(dec, "solve_triangular", "decoder.solve_triangular"),
        Site(tr, "send_observation", "transport.send_observation"),
        Site(tr, "serve_base", "transport.serve_base"),
        Site(tr, "serialize", "wire.serialize"),
        Site(tr, "deserialize", "wire.deserialize"),
        Site(codec.synth, "generate_scan", "synth.generate_scan"),
    ]


def em_steps(tracer, kids, keep) -> dict[str, int]:
    """E- and M-step counts rebuilt from the bound values the spans returned.

    Both steps accept a candidate iff its bound strictly exceeds the current
    one, and the first bound under each step call is that current value, so
    replaying the returned values counts acceptances independently of the
    encoder's own trace.
    """
    counts = dict.fromkeys(("estep_proposals", "estep_accepted", "mstep_iterations",
                            "mstep_accepted", "mstep_bound_evals", "mstep_trials"), 0)
    for index, span in enumerate(tracer.spans):
        if not keep(span) or span.name not in ("encoder.refine_inducing_swap",
                                               "encoder.optimize_hyperparams"):
            continue
        children = [tracer.spans[c] for c in kids.get(index, ())]
        bounds = [c for c in children if c.name == "encoder.variational_bound"]
        accepted, current = 0, None
        for position, bound in enumerate(bounds):
            value = None if bound.data is None else bound.data["value"]
            if position == 0:
                current = value
            elif value is not None and current is not None and value > current:
                accepted, current = accepted + 1, value
        trials = max(len(bounds) - 1, 0)
        if span.name == "encoder.refine_inducing_swap":
            counts["estep_proposals"] += trials
            counts["estep_accepted"] += accepted
        else:
            counts["mstep_iterations"] += sum(
                c.name == "encoder.bound_grad_hyperparams" for c in children)
            counts["mstep_accepted"] += accepted
            counts["mstep_bound_evals"] += len(bounds)
            counts["mstep_trials"] += trials
    return counts


def layer_metrics(summary: dict, em: dict, ops: int, extra: dict) -> dict[str, float]:
    """Per-operation values for every PER_LAYER name.

    ``summary`` is Tracer.summarize over the measured operations, ``em`` the
    em_steps counts over the same spans, and ``extra`` holds the values the
    workload measured itself (message checks, link counters, overheads).
    """
    def per(value):
        return value / ops if ops else 0.0

    def field(name, key):
        entry = summary.get(name)
        if entry is None:
            return 0.0
        return entry[key] if key in ("calls", "s", "self_s") else entry["data"].get(key, 0)

    values = {}
    for metric, _ in PER_LAYER:
        span_name, _, key = metric.rpartition(".")
        if key in ("calls", "s", "self_s") and span_name in summary:
            values[metric] = per(field(span_name, key))
    values.update({
        "encoder.estep.proposals": per(em["estep_proposals"]),
        "encoder.estep.accepted": per(em["estep_accepted"]),
        "encoder.estep.accept_ratio": _ratio(em["estep_accepted"], em["estep_proposals"]),
        "encoder.mstep.iterations": per(em["mstep_iterations"]),
        "encoder.mstep.accepted": per(em["mstep_accepted"]),
        "encoder.mstep.bound_evals": per(em["mstep_bound_evals"]),
        "encoder.mstep.useful_ratio": _ratio(em["mstep_accepted"], em["mstep_trials"]),
        "kernel.kernel_matrix.entries": per(field("kernel.kernel_matrix", "entries")),
        "kernel.kernel_matrix_grads.entries": per(
            field("kernel.kernel_matrix_grads", "entries")),
        "kernel.chol_with_jitter.jittered": per(field("kernel.chol_with_jitter", "jittered")),
        "kernel.numerical_errors": per(sum(
            entry["origin_errors"].get("NumericalError", 0) for entry in summary.values())),
        "decoder.predict_surface.cells": per(field("decoder.predict_surface", "cells")),
        "decoder.occupied_fraction": _ratio(field("decoder.sample_occupied", "occupied"),
                                            field("decoder.predict_surface", "cells")),
        "geometry.samples_kept": per(field("geometry.project_to_surface", "kept")),
        "geometry.samples_dropped": per(field("geometry.project_to_surface", "dropped")),
    })
    values.update(extra)
    return {metric: float(values.get(metric, 0.0)) for metric, _ in PER_LAYER}


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0
