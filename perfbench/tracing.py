"""Timing hooks installed into hdrmask from outside the package.

A :class:`Tracer` replaces every module-level binding of the functions named
in ``TRACED`` (in every loaded ``hdrmask`` module, because ``from .x import
f`` copies the binding) with a timing wrapper, and puts the originals back on
exit. Nothing under ``src/`` is edited.

Spans nest: a span's self time is its duration minus the time its child
spans cover. ``tensor.conv2d_raw`` spans are split by the span that called
them: under ``tensor.backward`` they are the input-gradient convolutions,
under ``network.propagate_mask`` the mask convolutions, otherwise forward
convolutions.

Besides spans the tracer keeps per-layer labels (inclusive times of the
convolutions whose weight is a named network layer or an extractor stage)
and work counts computed from the shapes the calls see.

With ``spans=False`` only the boundary function is wrapped, and the wrapper
does nothing but append a ``(wall, cpu)`` timestamp pair when it returns;
the untraced runs use this to find operation boundaries (one training step
per ``tensor.adam_step`` call, one scored crop per ``sampler.patch_metric``
call).
"""

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter, process_time

TRACED = {
    "tensor": ("conv2d", "conv2d_raw", "backward", "adam_step"),
    "network": ("exposure_mask", "propagate_mask", "unet_forward"),
    "losses": ("total_loss", "perceptual_loss"),
    "sampler": ("sample_patches", "patch_metric", "bilateral_filter"),
    "pipeline": ("compose_hdr",),
    "training": ("finetune_hdr", "validation_mse", "load_model"),
    "formats": ("read_ldr", "write_pfm", "load_checkpoint",
                "write_dataset_shard", "read_dataset_shard"),
    "cli": ("dispatch",),
}
TRACED_METHODS = {("losses", "FeatureExtractor", "features"): "losses.extractor_features"}

RAW_CONV_KIND = {"tensor.backward": "bwd", "network.propagate_mask": "mask"}


def _hdrmask_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hdrmask" or name.startswith("hdrmask."))]


class Tracer:
    """Context manager that installs the wrappers on entry and removes them on exit.

    It can be entered again after exit; spans, labels and counts accumulate.
    """

    def __init__(self, boundary=None, spans=True, extractor_shapes=None):
        self.boundary = boundary
        self.spans = spans
        # Extractor weights are unnamed constants; their shapes identify the stage.
        self.extractor_shapes = dict(extractor_shapes or {})
        self.stamps = []
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.labels = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []
        self._patched = []

    # -- install / remove ---------------------------------------------------

    def __enter__(self):
        import hdrmask.cli  # noqa: F401  (load every module whose bindings get patched)

        if self._patched:
            raise RuntimeError("tracer is already installed")

        modules = _hdrmask_modules()
        for mod_name, funcs in TRACED.items():
            module = sys.modules[f"hdrmask.{mod_name}"]
            for func in funcs:
                qual = f"{mod_name}.{func}"
                if not self.spans and qual != self.boundary:
                    continue
                original = getattr(module, func)
                wrapper = self._wrap(qual, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        if self.spans:
            for (mod_name, cls_name, meth), qual in TRACED_METHODS.items():
                cls = getattr(sys.modules[f"hdrmask.{mod_name}"], cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(qual, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        leftover = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patched
                    if getattr(o, a) is not orig]
        self._patched.clear()
        if leftover:
            raise RuntimeError(f"tracer left wrappers installed: {leftover}")
        return False

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, qual, fn):
        stamp = qual == self.boundary
        if not self.spans:
            @functools.wraps(fn)
            def clock(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.stamps.append((perf_counter(), process_time()))
                return out
            return clock

        after = getattr(self, "_after_" + qual.replace(".", "_"), None)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            name = qual
            if qual == "tensor.conv2d_raw":
                parent = self._stack[-1][0] if self._stack else None
                name = f"{qual}.{RAW_CONV_KIND.get(parent, 'fwd')}"
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                self.incl_s[name] += dt
                self.self_s[name] += dt - frame[1]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += dt
            if after is not None:
                after(args, kwargs, out, dt)
            if stamp:
                self.stamps.append((perf_counter(), process_time()))
            return out
        return span

    def _layer(self, weight):
        name = weight.name or ""
        if name.endswith(".weight"):
            return "network." + name[:-len(".weight")]
        return self.extractor_shapes.get(weight.data.shape, "unnamed")

    def _after_tensor_conv2d(self, args, kwargs, out, dt):
        w = args[1] if len(args) > 1 else kwargs["w"]
        layer = self._layer(w)
        self.labels[f"{layer}.fwd_ms"] += dt
        n, co, oh, ow = out.data.shape
        _, ci, kh, kw = w.data.shape
        cols = n * ci * kh * kw * oh * ow
        self.counts[f"{layer}.macs"] += cols * co
        self.counts[f"{layer}.im2col_bytes"] += cols * out.data.itemsize
        vjp = out._vjp
        if vjp is not None:
            labels = self.labels

            def timed_vjp(g):
                t0 = perf_counter()
                grads = vjp(g)
                labels[f"{layer}.bwd_ms"] += perf_counter() - t0
                return grads
            out._vjp = timed_vjp

    def _after_tensor_conv2d_raw(self, args, kwargs, out, dt):
        w = args[1] if len(args) > 1 else kwargs["w"]
        cols = out[1]
        self.counts["tensor.conv2d_raw.macs"] += cols.size * w.shape[0]
        self.counts["tensor.conv2d_raw.im2col_bytes"] += cols.nbytes

    def _after_network_propagate_mask(self, args, kwargs, out, dt):
        w = args[1] if len(args) > 1 else kwargs["weights"]
        self.labels[f"{self._layer(w)}.mask_ms"] += dt

    def _after_sampler_sample_patches(self, args, kwargs, out, dt):
        config = args[1] if len(args) > 1 else kwargs["config"]
        self.counts["sampler.candidates"] += config.patches_per_image
        self.counts["sampler.kept"] += len(out)

    def _after_formats_write_dataset_shard(self, args, kwargs, out, dt):
        self.counts["formats.shard_bytes"] += os.path.getsize(args[0])

    _after_formats_read_dataset_shard = _after_formats_write_dataset_shard

    def spans_report(self):
        """``{span: {self_ms, incl_ms, calls}}`` for every span that ran."""
        return {name: {"self_ms": 1e3 * self.self_s[name], "incl_ms": 1e3 * self.incl_s[name],
                       "calls": self.calls[name]}
                for name in sorted(self.calls)}
