"""Per-layer trace targets and the per-layer metrics derived from their spans.

Each target is a module (or class) attribute through which callers reach a
public function of one proprio layer. Wrapping the attribute, not the
function's code, keeps src/ untouched; a function reached through several
names (for example predict_batch from cli and from training) is wrapped at
each of them under one span name.

Counts marked "computed" come from argument shapes, not from the program:
FLOPs of a kernel are 2*multiply-adds of its GEMM-equivalent work, and the
bytes of a window gather are 8 bytes per float64 element it copies.
"""

from __future__ import annotations

import os

from tracer import percentile

FLOAT_BYTES = 8


def _conv_forward_count(args, kwargs, result):
    x, weight = args[0], args[1]
    n, c, t = x.shape
    o, _, k = weight.shape
    return {"contactnet.conv1d_forward.flops": 2 * n * o * c * k * t}


def _conv_backward_count(args, kwargs, result):
    dout, (_, _, weight, _, t) = args[0], args[1]
    n = dout.shape[0]
    o, c, k = weight.shape
    # dW and dX are each one GEMM the size of the forward pass
    return {"contactnet.conv1d_backward.flops": 4 * n * o * c * k * t}


def _dense_forward_count(args, kwargs, result):
    x, weight = args[0], args[1]
    return {"contactnet.dense_forward.flops": 2 * x.shape[0] * weight.shape[0] * weight.shape[1]}


def _dense_backward_count(args, kwargs, result):
    dout, _, weight = args
    return {"contactnet.dense_backward.flops": 4 * dout.shape[0] * weight.shape[0] * weight.shape[1]}


def _gather_count(args, kwargs, result):
    windows, idx = args[0], args[1]
    ends = sorted(set(int(e) for e in windows.end_indices[idx]))
    w = windows.w
    distinct = 0
    prev = None
    for e in ends:
        distinct += w if prev is None else min(w, e - prev)
        prev = e
    return {
        "dataio.window_batch.rows": result.shape[0] * w,
        "dataio.window_batch.distinct_rows": distinct,
        "dataio.window_batch.bytes": result.size * FLOAT_BYTES,
    }


def _train_windows_count(args, kwargs, result):
    return {"contactnet.loss_and_grads.windows": args[2].shape[0]}


def _state_dim_count(args, kwargs, result):
    return {"inekf.state_dim": args[0].cov.shape[0]}


def _file_bytes_count(name, path_arg):
    def count(args, kwargs, result):
        return {name: os.path.getsize(args[path_arg])}

    return count


def trace_targets():
    """(owner, attribute, span name, counter) for every wrapped call site."""
    from proprio import cli, dataio, evalkit, gaitsim, inekf, labelgen
    from proprio.contactnet import layers, network, training

    targets = [
        (inekf, "filter_sequence", "inekf.filter_sequence", None),
        (inekf, "step", "inekf.step", _state_dim_count),
        (inekf, "propagate", "inekf.propagate", None),
        (inekf, "update_contact_kinematics", "inekf.update_contact_kinematics", None),
        (inekf, "augment_contact", "inekf.augment_contact", None),
        (inekf, "marginalize_contact", "inekf.marginalize_contact", None),
        (inekf, "fk_position", "kinematics.fk", None),
        (inekf, "fk_jacobian", "kinematics.fk", None),
    ]
    targets += [(inekf, fn, "liegroup", None) for fn in ("adjoint", "so3_exp", "sek3_exp", "sek3_compose")]
    targets += [
        (layers, "conv1d_forward", "contactnet.conv1d_forward", _conv_forward_count),
        (layers, "conv1d_backward", "contactnet.conv1d_backward", _conv_backward_count),
        (layers, "dense_forward", "contactnet.dense_forward", _dense_forward_count),
        (layers, "dense_backward", "contactnet.dense_backward", _dense_backward_count),
    ]
    targets += [
        (layers, fn, f"contactnet.{fn}", None)
        for fn in (
            "relu_forward", "relu_backward", "dropout_forward", "dropout_backward",
            "maxpool1d_forward", "maxpool1d_backward", "cross_entropy",
        )
    ]
    targets += [
        (network, "predict_batch", "contactnet.predict_batch", None),
        (cli, "predict_batch", "contactnet.predict_batch", None),
        (network, "loss_and_grads", "contactnet.loss_and_grads", _train_windows_count),
        (network, "init_params", "contactnet.init_params", None),
        (cli, "train", "contactnet.train", None),
        (training, "evaluate_accuracy", "contactnet.evaluate_accuracy", None),
        (cli, "evaluate_accuracy", "contactnet.evaluate_accuracy", None),
        (cli, "save_params", "contactnet.save_params", _file_bytes_count("contactnet.save_params.bytes", 2)),
        (dataio.WindowSet, "batch", "dataio.window_batch", _gather_count),
        (dataio, "normalize_window", "dataio.normalize_window", None),
        (training, "normalize_window", "dataio.normalize_window", None),
        (dataio, "window_set", "dataio.window_set", None),
        (dataio, "upsample", "dataio.upsample", None),
        (gaitsim, "upsample", "dataio.upsample", None),
        (dataio, "write_dataset", "dataio.write_dataset", _file_bytes_count("dataio.write_dataset.bytes", 1)),
        (dataio, "write_contacts", "dataio.write_contacts", None),
        (labelgen, "generate_labels", "labelgen.generate_labels", None),
        (gaitsim, "simulate", "gaitsim.simulate", None),
    ]
    targets += [
        (evalkit, fn, f"evalkit.{fn}", None)
        for fn in (
            "classification_metrics", "align_trajectories", "trajectory_metrics",
            "write_trajectory", "export_report",
        )
    ]
    targets.append((cli, "main", "cli.pipeline", None))
    return targets


# (name, unit, better, derivation). Derivations take (summary, counters, run)
# where run holds the workload-level numbers of the traced run.
def _calls(span):
    return lambda s, c, r: s[span]["calls"]


def _self(span):
    return lambda s, c, r: s[span]["self_s"]


def _pct(span, q, scale):
    return lambda s, c, r: percentile(s[span]["durations"], q) * scale


def _gflops(span):
    return lambda s, c, r: c[f"{span}.flops"] / s[span]["self_s"] / 1e9


def _counter(key):
    return lambda s, c, r: c[key]


def _run(key):
    return lambda s, c, r: r[key]


PER_LAYER = [
    ("inekf.filter_sequence.self_s", "s", "lower", _self("inekf.filter_sequence")),
    ("inekf.step.calls", "count", "lower", _calls("inekf.step")),
    ("inekf.step.self_s", "s", "lower", _self("inekf.step")),
    ("inekf.step.p50_us", "us", "lower", _pct("inekf.step", 50, 1e6)),
    ("inekf.step.p99_us", "us", "lower", _pct("inekf.step", 99, 1e6)),
    ("inekf.propagate.self_s", "s", "lower", _self("inekf.propagate")),
    ("inekf.update_contact_kinematics.calls", "count", "lower", _calls("inekf.update_contact_kinematics")),
    ("inekf.update_contact_kinematics.self_s", "s", "lower", _self("inekf.update_contact_kinematics")),
    ("inekf.augment_contact.calls", "count", "lower", _calls("inekf.augment_contact")),
    ("inekf.augment_contact.self_s", "s", "lower", _self("inekf.augment_contact")),
    ("inekf.marginalize_contact.calls", "count", "lower", _calls("inekf.marginalize_contact")),
    ("inekf.marginalize_contact.self_s", "s", "lower", _self("inekf.marginalize_contact")),
    ("inekf.state_dim.mean", "count", "lower",
     lambda s, c, r: c["inekf.state_dim"] / s["inekf.step"]["calls"]),
    ("kinematics.fk.calls", "count", "lower", _calls("kinematics.fk")),
    ("kinematics.fk.self_s", "s", "lower", _self("kinematics.fk")),
    ("liegroup.self_s", "s", "lower", _self("liegroup")),
    ("drift_pct", "%", "lower", _run("drift_pct")),
    ("contactnet.conv1d_forward.calls", "count", "lower", _calls("contactnet.conv1d_forward")),
    ("contactnet.conv1d_forward.self_s", "s", "lower", _self("contactnet.conv1d_forward")),
    ("contactnet.conv1d_forward.gflops", "GFLOP/s", "higher", _gflops("contactnet.conv1d_forward")),
    ("contactnet.conv1d_backward.self_s", "s", "lower", _self("contactnet.conv1d_backward")),
    ("contactnet.conv1d_backward.gflops", "GFLOP/s", "higher", _gflops("contactnet.conv1d_backward")),
    ("contactnet.dense_forward.self_s", "s", "lower", _self("contactnet.dense_forward")),
    ("contactnet.dense_forward.gflops", "GFLOP/s", "higher", _gflops("contactnet.dense_forward")),
    ("contactnet.dense_backward.self_s", "s", "lower", _self("contactnet.dense_backward")),
    ("contactnet.dense_backward.gflops", "GFLOP/s", "higher", _gflops("contactnet.dense_backward")),
]
PER_LAYER += [
    (f"contactnet.{fn}.self_s", "s", "lower", _self(f"contactnet.{fn}"))
    for fn in (
        "relu_forward", "relu_backward", "dropout_forward", "dropout_backward",
        "maxpool1d_forward", "maxpool1d_backward", "cross_entropy",
    )
]
PER_LAYER += [
    ("contactnet.predict_batch.calls", "count", "lower", _calls("contactnet.predict_batch")),
    ("contactnet.predict_batch.self_s", "s", "lower", _self("contactnet.predict_batch")),
    ("contactnet.predict_batch.p50_ms", "ms", "lower", _pct("contactnet.predict_batch", 50, 1e3)),
    ("contactnet.loss_and_grads.calls", "count", "lower", _calls("contactnet.loss_and_grads")),
    ("contactnet.loss_and_grads.self_s", "s", "lower", _self("contactnet.loss_and_grads")),
    ("contactnet.train.self_s", "s", "lower", _self("contactnet.train")),
    ("contactnet.train.windows_per_s", "1/s", "higher",
     lambda s, c, r: c["contactnet.loss_and_grads.windows"] / sum(s["contactnet.train"]["durations"])),
    ("contactnet.evaluate_accuracy.self_s", "s", "lower", _self("contactnet.evaluate_accuracy")),
    ("contactnet.save_params.self_s", "s", "lower", _self("contactnet.save_params")),
    ("contactnet.save_params.bytes", "B", "lower", _counter("contactnet.save_params.bytes")),
    ("contact_acc", "1", "higher", _run("contact_acc")),
    ("dataio.window_batch.calls", "count", "lower", _calls("dataio.window_batch")),
    ("dataio.window_batch.self_s", "s", "lower", _self("dataio.window_batch")),
    ("dataio.window_batch.bytes", "B", "lower", _counter("dataio.window_batch.bytes")),
    ("dataio.window_batch.dup_ratio", "1", "lower",
     lambda s, c, r: c["dataio.window_batch.rows"] / c["dataio.window_batch.distinct_rows"]),
    ("dataio.normalize_window.self_s", "s", "lower", _self("dataio.normalize_window")),
    ("dataio.window_set.self_s", "s", "lower", _self("dataio.window_set")),
    ("dataio.upsample.self_s", "s", "lower", _self("dataio.upsample")),
    ("dataio.write_dataset.self_s", "s", "lower", _self("dataio.write_dataset")),
    ("dataio.write_dataset.bytes", "B", "lower", _counter("dataio.write_dataset.bytes")),
    ("dataio.write_contacts.self_s", "s", "lower", _self("dataio.write_contacts")),
    ("labelgen.generate_labels.self_s", "s", "lower", _self("labelgen.generate_labels")),
    ("gaitsim.simulate.self_s", "s", "lower", _self("gaitsim.simulate")),
]
PER_LAYER += [
    (f"evalkit.{fn}.self_s", "s", "lower", _self(f"evalkit.{fn}"))
    for fn in (
        "classification_metrics", "align_trajectories", "trajectory_metrics",
        "write_trajectory", "export_report",
    )
]
PER_LAYER += [
    ("cli.pipeline.self_s", "s", "lower", _self("cli.pipeline")),
    ("process.cpu_util", "1", "higher", _run("cpu_util")),
    ("trace.overhead_pct", "%", "lower", _run("overhead_pct")),
]

# Metrics derived from argument shapes or file sizes rather than timed.
COMPUTED = {
    name for name, *_ in PER_LAYER
    if name.endswith((".gflops", ".bytes", ".dup_ratio", ".state_dim.mean"))
}


def per_layer_metrics(summary, counters, run):
    """[(name, value, unit, absent)]: absent means the layer never ran here.

    An absent metric carries the value 0 because every metric must be a
    number; `absent` tells it apart from a layer that ran and took no time.
    """
    out = []
    for name, unit, _, derive in PER_LAYER:
        try:
            value = float(derive(summary, counters, run))
            absent = False
        except KeyError:
            value, absent = 0.0, True
        out.append((name, value, unit, absent))
    return out
