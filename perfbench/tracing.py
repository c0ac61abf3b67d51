"""Per-layer spans for trihead, recorded from outside the package.

``Tracer.install`` replaces trihead's public functions, in every module
namespace that holds them, with wrappers that record a span (name, start,
end, parent) into in-memory arrays. Differentiable ops get a second kind
of span: the backward rule of each node they return is wrapped too, so a
backward pass is split by op. Each op span also carries the *site* that
called it (inside ``encode_batch``, the part of the layer: embed, attn,
ffn or ln), and every span carries the *phase* it ran in (pretrain,
train, eval). ``uninstall`` puts the original functions back.

``StepClock`` is the only hook an untraced run keeps: one timestamp per
optimizer step and one per predicted chunk.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = ("autograd", "textpipe", "encoder", "pooling", "optim", "train",
           "metrics", "data", "cli")
# private helpers whose spans the per-layer metrics need
PRIVATE = {"train": ("_evaluate_params", "_copy_params", "_predict_encoded")}
OPS = ("add", "mul", "scale", "matmul", "sum_over", "mean_over_axis", "reshape",
       "transpose", "softmax", "gelu", "layer_norm", "dropout",
       "embedding_lookup", "cross_entropy")
PHASES = ("other", "pretrain", "train", "eval")
PHASE_OF = {"encoder.pretrain_mlm": PHASES.index("pretrain"),
            "train.train": PHASES.index("train"),
            "train._predict_encoded": PHASES.index("eval")}
SITES = ("other", "encoder.embed", "encoder.attn", "encoder.ffn", "encoder.ln",
         "encoder.mlm_head", "pooling.attn_pool", "pooling.mean_pool",
         "pooling.heads", "train.forward", "train.loss")
ENCODER_PARTS = ("embed", "attn", "ffn", "ln")
ENCODER_SITES = tuple(SITES.index(f"encoder.{part}") for part in ENCODER_PARTS)
EMBED, _, FFN, LN = ENCODER_SITES
ENCODE_BATCH = -1   # marks encode_batch's own frame: its ops are sited by op type


def _nested_codes(code):
    yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _nested_codes(const)


class _TimedRule:
    """A node's backward rule, timed as a child of whatever span runs it."""

    __slots__ = ("tracer", "rule", "name", "site")

    def __init__(self, tracer, rule, name, site):
        self.tracer, self.rule, self.name, self.site = tracer, rule, name, site

    def __call__(self, g):
        idx = self.tracer._open(self.name, self.site)
        try:
            return self.rule(g)
        finally:
            self.tracer._close(idx)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.site = array("b")
        self.phase = array("b")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._phases = [0]
        self.counts: Counter = Counter()   # (counter, phase) -> total
        self.maxima: dict = {}
        self._patches: list = []
        self._in_layers = False   # encode_batch has reached its first layer norm
        self._overhead = self._id("bench.overhead")

    # -- span recording ----------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name: int, site: int) -> int:
        idx = len(self.start)
        self.name.append(name)
        self.site.append(site)
        self.phase.append(self._phases[-1])
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _count(self, key: str, n=1) -> None:
        self.counts[key, self._phases[-1]] += n

    # -- wrappers ----------------------------------------------------------

    def _wrap_function(self, qualname, fn, before=None, after=None):
        nid = self._id(qualname)
        phase = PHASE_OF.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if phase is not None:
                tracer._phases.append(phase)
            try:
                if before is not None:
                    tracer._bookkeep(before, args, None)
                idx = tracer._open(nid, 0)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if after is not None:
                    tracer._bookkeep(after, args, out)
            finally:
                if phase is not None:
                    tracer._phases.pop()
            return out

        return wrapped

    def _bookkeep(self, hook, args, out):
        # counted under its own span so no layer's self time absorbs it
        idx = self._open(self._overhead, 0)
        try:
            hook(args, out)
        finally:
            self._close(idx)

    def _wrap_op(self, op, fn):
        fwd, bwd = self._id(f"autograd.fwd.{op}"), self._id(f"autograd.bwd.{op}")
        autograd_globals = fn.__globals__
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            frame = sys._getframe(1)
            while frame.f_globals is autograd_globals:  # Tensor operator sugar
                frame = frame.f_back
            site = tracer._sites.get(frame.f_code, 0)
            if site == ENCODE_BATCH:
                site = tracer._encode_site(op)
            idx = tracer._open(fwd, site)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            node = out.node
            # eval-mode dropout hands back its input, whose node is wrapped
            if node is not None and node.backward_fn.__class__ is not _TimedRule:
                tracer._count("nodes")
                node.backward_fn = _TimedRule(tracer, node.backward_fn, bwd, site)
            return out

        return wrapped

    def _encode_site(self, op: str) -> int:
        """Site of an op that encode_batch calls itself, by op type and
        order: layer norms are ln; the embedding lookups and every op before
        the first layer norm are embed; the rest of each layer (dropouts,
        residual adds, the FFN) is ffn. Ops under _attention never get here."""
        if op == "layer_norm":
            self._in_layers = True
            return LN
        if op == "embedding_lookup" or not self._in_layers:
            return EMBED
        return FFN

    def _build_sites(self, mods):
        enc, pool, train = mods["encoder"], mods["pooling"], mods["train"]
        sites = {enc.encode_batch.__code__: ENCODE_BATCH}
        fixed = ((enc._attention, "encoder.attn"), (enc.pretrain_mlm, "encoder.mlm_head"),
                 (pool.attention_pool, "pooling.attn_pool"),
                 (pool.mean_pool, "pooling.mean_pool"), (pool.logits_for, "pooling.heads"),
                 (train.forward_logits, "train.forward"), (train.train, "train.loss"))
        for fn, site in fixed:
            for code in _nested_codes(fn.__code__):
                sites[code] = SITES.index(site)
        self._sites = sites

    def _hooks(self, mods):
        textpipe = mods["textpipe"]
        tokenize, maxima = textpipe.tokenize, self.maxima

        def real_tokens(args, _):
            self._in_layers = False
            mask = args[0].attention_mask
            self._count("real_tokens", int(mask.sum()))
            self._count("positions", int(mask.size))

        def truncation(args, _):
            texts, vocab, max_len = args[:3]
            self._count("texts_encoded", len(texts))
            self._count("texts_truncated",
                        sum(1 for t in texts if len(tokenize(t, vocab)) + 1 > max_len))

        def clipped(_, norm):
            self._count("clip_calls")
            self._count("clipped", int(norm > 1.0))

        def grad_dtypes(args, _):
            wrong = sum(1 for p in args[0].params.values()
                        if p.grad is not None and p.grad.dtype != p.data.dtype)
            key = ("grad_dtype_mismatch", self._phases[-1])
            maxima[key] = max(maxima.get(key, 0), wrong)

        return {"encoder.encode_batch": (real_tokens, None),
                "textpipe.batch_encode": (None, truncation),
                "optim.clip_global_norm": (None, clipped),
                "optim.AdamW.step": (grad_dtypes, None)}

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"trihead.{m}") for m in MODULES}
        self._build_sites(mods)
        hooks = self._hooks(mods)
        wrappers = {}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if name.startswith("_") and name not in PRIVATE.get(short, ()):
                    continue
                if short == "autograd" and name in OPS:
                    wrappers[obj] = self._wrap_op(name, obj)
                else:
                    qual = f"{short}.{name}"
                    wrappers[obj] = self._wrap_function(qual, obj, *hooks.get(qual, (None, None)))
        for mod in [importlib.import_module("trihead"), *mods.values()]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, name, wrappers[obj])
        adamw = mods["optim"].AdamW
        for meth in ("step", "zero_grad"):
            qual = f"optim.AdamW.{meth}"
            self._patch(adamw, meth, self._wrap_function(
                qual, getattr(adamw, meth), *hooks.get(qual, (None, None))))

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "site": np.frombuffer(self.site, dtype=np.int8),
                "phase": np.frombuffer(self.phase, dtype=np.int8),
                "parent": parent, "start": start, "end": end,
                "dur": dur, "self": dur - child}

    def save(self, path) -> None:
        a = self.arrays()
        t0 = a["start"].min() if a["start"].size else 0.0
        np.savez_compressed(path, names=np.array(self.names), sites=np.array(SITES),
                            phases=np.array(PHASES), name=a["name"], site=a["site"],
                            phase=a["phase"], parent=a["parent"],
                            start=a["start"] - t0, end=a["end"] - t0)


class StepClock:
    """One perf_counter stamp per AdamW.step return and per predicted chunk
    (each call of predict_labels from trihead.train)."""

    def __init__(self):
        self.steps: list[float] = []
        self.chunks: list[float] = []
        self._patches: list = []

    def install(self) -> None:
        optim = importlib.import_module("trihead.optim")
        train = importlib.import_module("trihead.train")
        self._patches = [(optim.AdamW, "step", optim.AdamW.step),
                         (train, "predict_labels", train.predict_labels)]
        self._patch_stamp(optim.AdamW, "step", self.steps)
        self._patch_stamp(train, "predict_labels", self.chunks)

    @staticmethod
    def _patch_stamp(owner, name, stamps):
        fn = getattr(owner, name)

        @functools.wraps(fn)
        def stamped(*args, **kwargs):
            out = fn(*args, **kwargs)
            stamps.append(perf_counter())
            return out

        setattr(owner, name, stamped)

    def uninstall(self) -> None:
        for owner, name, original in self._patches:
            setattr(owner, name, original)
        self._patches = []


# names of the ops the per-layer metrics report, in the issue's order
REPORTED_OPS = ("matmul", "add", "scale", "reshape", "transpose", "softmax",
                "layer_norm", "gelu", "dropout", "embedding_lookup", "cross_entropy")


def layer_metrics(tracer: Tracer, main_phase: str) -> dict:
    """Per-layer numbers from one traced process.

    Training-side numbers (autograd ops, backward, optim, train) are per
    fine-tuning optimizer step; encoder and pooling forward numbers are per
    step of the workload's main phase (an optimizer step when training, a
    64-text chunk when predicting); function-level numbers are per call.
    """
    a = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}
    train, pre, ev = PHASES.index("train"), PHASES.index("pretrain"), PHASES.index("eval")
    main = PHASES.index(main_phase)

    def mask(name, phase=None, site=None):
        m = a["name"] == ids.get(name, -1)
        if phase is not None:
            m &= a["phase"] == phase
        if site is not None:
            m &= a["site"] == SITES.index(site)
        return m

    def ms(m, key="dur"):
        return float(a[key][m].sum()) * 1e3

    def per_call(name, key="dur"):
        m = mask(name)
        return ms(m, key) / max(int(m.sum()), 1)

    def prefixed(prefix, phase, site=None):
        m = np.isin(a["name"], [i for n, i in ids.items() if n.startswith(prefix)])
        m &= a["phase"] == phase
        if site is not None:
            m &= a["site"] == SITES.index(site)
        return m

    steps = max(int(mask("optim.AdamW.step", train).sum()), 1)
    chunks = max(int(mask("pooling.predict_labels", ev).sum()), 1)
    main_steps = steps if main == train else chunks
    counts = tracer.counts
    out = {"autograd.nodes_per_step": counts["nodes", train] / steps}
    for op in REPORTED_OPS:
        out[f"autograd.fwd_ms.{op}"] = ms(mask(f"autograd.fwd.{op}", train)) / steps
        out[f"autograd.bwd_ms.{op}"] = ms(mask(f"autograd.bwd.{op}", train)) / steps
    out["autograd.backward_ms"] = ms(mask("autograd.backward", train)) / steps
    out["autograd.backward_self_ms"] = ms(mask("autograd.backward", train), "self") / steps
    out["autograd.grad_dtype_mismatch"] = tracer.maxima.get(("grad_dtype_mismatch", train), 0)
    out["autograd.eval_nodes_per_chunk"] = counts["nodes", ev] / chunks

    out["encoder.encode_batch_ms"] = ms(mask("encoder.encode_batch", main)) / main_steps
    for part in ENCODER_PARTS:
        out[f"encoder.{part}.fwd_ms"] = ms(prefixed("autograd.fwd.", main, f"encoder.{part}")) / main_steps
        out[f"encoder.{part}.bwd_ms"] = ms(prefixed("autograd.bwd.", train, f"encoder.{part}")) / steps
    out["encoder.real_token_share"] = counts["real_tokens", main] / max(counts["positions", main], 1)

    for key, fn, site in (("attn_pool", "pooling.attention_pool", "pooling.attn_pool"),
                          ("heads", "pooling.logits_for", "pooling.heads")):
        out[f"pooling.{key}.fwd_ms"] = ms(mask(fn, main)) / main_steps
        out[f"pooling.{key}.bwd_ms"] = ms(prefixed("autograd.bwd.", train, site)) / steps

    out["optim.zero_grad_ms"] = ms(mask("optim.AdamW.zero_grad", train)) / steps
    out["optim.clip_ms"] = ms(mask("optim.clip_global_norm", train)) / steps
    out["optim.adamw_step_ms"] = ms(mask("optim.AdamW.step", train)) / steps
    out["optim.clipped_share"] = counts["clipped", train] / max(counts["clip_calls", train], 1)

    out["train.step_self_ms"] = ms(mask("train.train"), "self") / steps
    out["train.dev_eval_ms"] = per_call("train._evaluate_params")
    out["train.copy_params_ms"] = per_call("train._copy_params")

    texts = sum(v for (k, _), v in counts.items() if k == "texts_encoded")
    truncated = sum(v for (k, _), v in counts.items() if k == "texts_truncated")
    out["textpipe.normalize_us_per_text"] = per_call("textpipe.normalize") * 1e3
    out["textpipe.batch_encode_us_per_text"] = ms(mask("textpipe.batch_encode")) * 1e3 / max(texts, 1)
    out["textpipe.truncated_share"] = truncated / max(texts, 1)

    out["metrics.score_triples_ms"] = per_call("metrics.score_triples")
    for fn in ("load_dataset", "load_checkpoint", "write_dataset", "load_labels",
               "save_checkpoint"):
        out[f"data.{fn}_ms"] = per_call(f"data.{fn}")
    cli_ids = [i for n, i in ids.items() if n.startswith("cli.")]
    out["cli.self_ms"] = ms(np.isin(a["name"], cli_ids), "self") / max(int(mask("cli.main").sum()), 1)

    # only the warm-started workload pretrains; kept out of the printed set
    pre_steps = int(mask("optim.AdamW.step", pre).sum())
    extra = {}
    if pre_steps:
        extra["encoder.pretrain_self_ms"] = ms(mask("encoder.pretrain_mlm"), "self") / pre_steps
    return out, extra


def encoder_site_check(tracer: Tracer) -> tuple:
    """Every forward op that encode_batch runs lands in one of the four
    layer parts, and each part gets some time. A new helper in the encoder,
    or an op the part rules do not expect, shows here instead of shifting
    the split unnoticed."""
    a = tracer.arrays()
    fwd = [i for n, i in tracer._ids.items() if n.startswith("autograd.fwd.")]
    parent = a["parent"]
    under = np.isin(a["name"], fwd) & (parent >= 0)
    under[under] = a["name"][parent[under]] == tracer._ids.get("encoder.encode_batch", -1)
    parts = {SITES[s]: float(a["dur"][under & (a["site"] == s)].sum()) * 1e3
             for s in ENCODER_SITES}
    stray = int((under & ~np.isin(a["site"], ENCODER_SITES)).sum())
    ok = bool(under.any()) and stray == 0 and all(v > 0 for v in parts.values())
    detail = ", ".join(f"{k} {v:.1f} ms" for k, v in parts.items())
    return ("encode_batch ops split into embed/attn/ffn/ln", ok,
            f"{detail}; {stray} ops outside them")
