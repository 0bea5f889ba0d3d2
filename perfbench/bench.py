"""Runs one workload and turns what it measured into the benchmark's metrics."""

import ctypes
import glob
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

import numpy as np

from hdrmask import network

import reference
from tracing import Tracer
from workloads import PATCH, WORKLOADS, extractor_shapes, unet_work

# Set-up runs at least SETUP_REPEATS times and for at least SETUP_MIN_S
# seconds; setup_s is the median, so a cheap set-up is not read off one run.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0

# Self-time spans reported per operation as "<span>.ms".
SELF_SPANS = ("tensor.conv2d", "tensor.backward", "tensor.adam_step",
              "network.exposure_mask", "network.propagate_mask", "network.unet_forward",
              "losses.total_loss", "losses.perceptual_loss", "losses.extractor_features",
              "training.validation_mse", "sampler.bilateral_filter", "sampler.patch_metric",
              "pipeline.compose_hdr", "formats.read_ldr", "formats.load_checkpoint",
              "formats.write_pfm", "formats.write_dataset_shard", "formats.read_dataset_shard")


def run(name, seed, seconds, traced, declared, threads, root):
    """Set up, warm up, measure; returns (record, result) ready to print."""
    workload = WORKLOADS[name]()
    base = os.path.join(root, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=base)
    try:
        setup_s = []
        while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_S:
            t0 = perf_counter()
            state = workload.setup(seed, workdir)
            setup_s.append(perf_counter() - t0)
        clock = Tracer(workload.boundary, spans=False)
        with clock:
            warmup = workload.run_unit(state, 0, clock.stamps)
        # Before the reference kernels first run, so it holds none of their arrays.
        peak_rss_mb = _peak_rss_mb()
        if traced:
            tracer = Tracer(workload.boundary, extractor_shapes=extractor_shapes(
                workload.extractor) if workload.extractor else None)
            untraced, traced_units = _measure(workload, state, seconds, (clock, tracer))
        else:
            (untraced,) = _measure(workload, state, seconds, (clock,))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass

    digests = {}
    problems = []
    _check_repeats(workload, [(0, warmup)] + untraced, digests, problems, "untraced")
    units = [warmup] + [u for _, u in untraced]
    summary = _summarize([u for _, u in untraced])
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "machine": machine_record(threads),
        "setup_s": {"median": statistics.median(setup_s), "min": min(setup_s),
                    "max": max(setup_s), "repeats": len(setup_s)},
        "warmup_s": warmup.busy_s,
        "peak_rss_mb": peak_rss_mb,
        "peak_rss_mb_end": _peak_rss_mb(),
        "untraced": summary,
        "workload_metrics": workload_metrics(name, summary),
    }
    if traced:
        mismatched = _check_repeats(workload, traced_units, digests, problems, "traced")
        units += [u for _, u in traced_units]
        traced_summary = _summarize([u for _, u in traced_units])
        overhead = 100 * (traced_summary["op_ref_ms_p50"] / summary["op_ref_ms_p50"] - 1)
        record["traced"] = traced_summary
        record["tracing"] = {"overhead_pct": overhead, "outputs_identical": not mismatched,
                             "work_counts_match": _work_counts_match(
                                 workload, tracer, len(traced_units))}
        record["spans"] = tracer.spans_report()
        metrics = layer_metrics(workload, tracer, traced_summary["ops"], overhead,
                                not mismatched)
        wanted = declared["per_layer"]
    else:
        metrics = {
            "setup_s": record["setup_s"]["median"],
            "peak_rss_mb": record["peak_rss_mb"],
            "op_ref_ms_p50": summary["op_ref_ms_p50"],
            "mpix_per_ref_s": summary["mpix_per_ref_s"],
        }
        wanted = declared["end_to_end"]
    for unit in units:
        problems += unit.problems
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    if not traced:
        metrics["success_pct"] = 100 * (attempted - failed) / attempted
    record["fail_rate"] = {"failed": failed, "attempted": attempted, "value": failed / attempted}
    record["problems"] = problems
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not computed: {missing}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                          for m in wanted}}
    return record, result


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _measure(workload, state, seconds, tracers):
    """Run rounds of units until ``seconds`` have passed; returns one [(k, Unit)] per tracer.

    A round runs unit k once under each tracer, so traced and untraced units
    alternate, see the same inputs and share any drift in machine speed. The
    reference kernels are timed before every round and after the last one,
    outside the units; a round's host slowdown is the median of the ones
    measured before the previous round, before this round and after it.
    """
    results = tuple([] for _ in tracers)
    slowdowns = []
    start = perf_counter()
    k = 0
    while not results[0] or perf_counter() - start < seconds:
        slowdowns.append(reference.slowdown())
        for tracer, units in zip(tracers, results):
            with tracer:
                units.append((k, workload.run_unit(state, k, tracer.stamps)))
        k += 1
    slowdowns.append(reference.slowdown())
    for units in results:
        for k, unit in units:
            unit.slowdown = statistics.median(slowdowns[max(0, k - 1):k + 2])
    return results


def _check_repeats(workload, units, digests, problems, label):
    """Units with the same inputs must give bit-identical outputs; returns the mismatch count."""
    mismatched = 0
    for k, unit in units:
        key = k % workload.period
        if digests.setdefault(key, unit.digest) != unit.digest:
            mismatched += 1
            problems.append(f"{label} unit {k}: outputs differ from an earlier unit with the "
                            f"same inputs")
    return mismatched


def tail(values):
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return {"value": sorted(values)[n - 11], "percentile": 100 * (n - 10) / n, "samples": n}


def _summarize(units):
    ops = [ms for u in units for ms in u.op_ms]
    cpu_ops = [ms for u in units for ms in u.op_cpu_ms]
    # CPU time at the reference speed (reference.py).
    ref_ops = [ms / u.slowdown for u in units for ms in u.op_cpu_ms]
    return {
        "units": len(units), "ops": len(ops),
        "op_ms_p50": statistics.median(ops),
        "op_ms_quartiles": statistics.quantiles(ops, n=4) if len(ops) > 1 else ops,
        "op_ms_tail": tail(ops),
        "op_cpu_ms_p50": statistics.median(cpu_ops),
        "op_ref_ms_p50": statistics.median(ref_ops),
        "op_ref_ms_quartiles": statistics.quantiles(ref_ops, n=4) if len(ops) > 1 else ref_ops,
        "op_ref_ms_tail": tail(ref_ops),
        # Medians over units, so one disturbed unit does not move the rate.
        "mpix_per_s": statistics.median(u.mpix / u.busy_s for u in units),
        "mpix_per_ref_s": statistics.median(u.mpix * u.slowdown / u.cpu_s for u in units),
        "busy_s": sum(u.busy_s for u in units),
        "cpu_s": sum(u.cpu_s for u in units),
        "slowdown_quartiles": statistics.quantiles(
            [u.slowdown for u in units], n=4) if len(units) > 1 else [units[0].slowdown],
        "quality": min((u.quality for u in units if math.isfinite(u.quality)), default=None),
    }


def workload_metrics(name, s):
    """The end-to-end metrics under their per-workload names (perfbench/README.md)."""
    patches_per_s = s["mpix_per_s"] * 1e6 / (PATCH * PATCH)
    if name == "train-hdr":
        return {"train_samples_per_s": patches_per_s, "train_step_ms_p50": s["op_ms_p50"],
                "train_step_ms_tail": s["op_ms_tail"], "train_val_mse": s["quality"]}
    if name == "reconstruct-512":
        return {"recon_mpix_per_s": s["mpix_per_s"], "recon_image_ms_p50": s["op_ms_p50"]}
    return {"curate_patches_per_s": patches_per_s, "curate_crop_ms_p50": s["op_ms_p50"],
            "curate_kept_ratio_min": s["quality"]}


def layer_metrics(workload, tracer, ops, overhead_pct, identical):
    """Per-layer metrics of the traced units; times and counts are per operation."""
    def per_op_ms(seconds):
        return 1e3 * seconds / ops

    m = {f"{span}.ms": per_op_ms(tracer.self_s.get(span, 0.0)) for span in SELF_SPANS}
    for kind in ("fwd", "bwd", "mask"):
        m[f"tensor.conv2d_raw.{kind}_ms"] = per_op_ms(
            tracer.self_s.get(f"tensor.conv2d_raw.{kind}", 0.0))
    m["tensor.conv2d.calls"] = tracer.calls.get("tensor.conv2d", 0) / ops
    m["tensor.conv2d.gmacs"] = tracer.counts.get("tensor.conv2d_raw.macs", 0) / ops / 1e9
    m["tensor.conv2d.im2col_mb"] = tracer.counts.get("tensor.conv2d_raw.im2col_bytes", 0) / ops / 1e6
    m["training.data_ms"] = per_op_ms(tracer.self_s.get("training.finetune_hdr", 0.0))
    m["cli.dispatch.self_ms"] = per_op_ms(tracer.self_s.get("cli.dispatch", 0.0))
    m["sampler.bilateral_filter.calls"] = tracer.calls.get("sampler.bilateral_filter", 0) / ops
    candidates = tracer.counts.get("sampler.candidates", 0)
    m["sampler.kept_ratio"] = tracer.counts.get("sampler.kept", 0) / candidates if candidates else 0.0
    shard_s = sum(tracer.incl_s.get(f"formats.{f}_dataset_shard", 0.0) for f in ("write", "read"))
    m["formats.shard_mb_per_s"] = (tracer.counts.get("formats.shard_bytes", 0) / shard_s / 1e6
                                   if shard_s else 0.0)
    work = workload.forward_work()
    layers = [f"network.{s.name}" for s in network.layer_plan(network.UNetConfig())]
    for layer in layers:
        for kind in ("fwd", "bwd", "mask"):
            m[f"{layer}.{kind}_ms"] = per_op_ms(tracer.labels.get(f"{layer}.{kind}_ms", 0.0))
    for layer in layers + [f"losses.extractor.stage{i}" for i in range(3)]:
        macs, nbytes = work.get(layer, (0, 0))
        m[f"{layer}.gmacs"] = macs / 1e9
        m[f"{layer}.im2col_mb"] = nbytes / 1e6
    m["trace.overhead_pct"] = overhead_pct
    m["trace.identical"] = float(identical)
    return m


def _work_counts_match(workload, tracer, n_units):
    """Do the U-Net MACs the tracer saw equal ``layer_plan``'s count for the passes run?"""
    samples = workload.unet_samples_per_unit() * n_units
    if not samples:
        return True
    h, w = workload.plane
    return all(tracer.counts.get(f"{layer}.macs", 0) == samples * macs
               for layer, (macs, _) in unet_work(workload.config, 1, h, w).items())


def _openblas_threads():
    """Thread count OpenBLAS reports at run time, or None where it cannot be queried."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def machine_record(threads):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_pinned": threads,
        "blas_threads_runtime": _openblas_threads(),
        "platform": platform.platform(),
        "argv": sys.argv[1:],
    }
