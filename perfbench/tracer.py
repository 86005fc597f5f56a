"""Run one symdet CLI command in this process with spans around each layer.

    python3 perfbench/tracer.py <symdet arguments...>

The command's stdout is left untouched.  Before the process exits, one
line ``perfbench-trace <json>`` goes to stderr with, per span name, the
number of calls and the self time (duration minus the time covered by
nested spans), plus the layer counters.  Nothing under ``src/`` is
edited: the wrappers replace the module attributes the engine looks its
functions up through.  A hook whose target no longer exists is listed
under ``unhooked`` and its metrics read 0; so is the miss counter of a
function that is no longer ``lru_cache``d.

Work done in pool workers is not seen here, so the benchmark gets the
work counters from a ``--jobs 1`` run and only the pool metrics from a
run at the default job count.
"""

from __future__ import annotations

import builtins
import functools
import json
import sys
import time
from collections import Counter, defaultdict

MARK = "perfbench-trace "


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []  # time covered by children of each open span
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.unhooked: list[str] = []
        self.caches: dict = {}  # counter name -> lru-cached function whose misses it reports
        self.scanning = 0  # >0 while a chain survival scan is running

    def open(self) -> list[float]:
        frame = [time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def close(self, name: str, frame: list[float]) -> None:
        duration = time.perf_counter() - frame[0]
        self.stack.pop()
        if self.stack:
            self.stack[-1][1] += duration
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - frame[1]

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; ``after(result, args)`` records counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(name, frame)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "max": dict(self.maxima),
            "unhooked": self.unhooked,
        }


def _replace(tracer: Tracer, module, name: str, make):
    """Swap every reference to module.name held by a symdet module."""
    orig = getattr(module, name, None)
    if orig is None:
        tracer.unhooked.append(f"{module.__name__}.{name}")
        return None
    new = make(orig)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("symdet"):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)
    return orig


def _patch_method(tracer: Tracer, cls, name: str, span: str) -> None:
    orig = getattr(cls, name, None)
    if orig is None:
        tracer.unhooked.append(f"{cls.__name__}.{name}")
        return
    setattr(cls, name, tracer.span(span, orig))


def install(tracer: Tracer) -> None:
    import symdet.cli as cli
    import symdet.combinat as combinat
    import symdet.exact as exact
    import symdet.gram as gram
    import symdet.refined as refined
    import symdet.symmetrizer as symmetrizer

    t, c, m = tracer, tracer.counts, tracer.maxima

    def cached_span(module, name, span, record):
        """Span around an lru-cached function; record(result) on cache misses.

        A target without ``cache_info`` is listed under ``unhooked``; each of
        its calls is then recorded and its miss counter reads 0.
        """

        def make(cached):
            if not hasattr(cached, "cache_info"):
                t.unhooked.append(f"{module.__name__}.{name}.cache_info")
                return t.span(span, cached, lambda result, args: record(result))

            @functools.wraps(cached)
            def counted(*args, **kwargs):
                misses = cached.cache_info().misses
                result = cached(*args, **kwargs)
                if cached.cache_info().misses > misses:
                    record(result)
                return result

            return t.span(span, counted)

        return _replace(t, module, name, make)

    # combinat
    def on_tableaux(result):
        c["combinat.tableaux"] += len(result)

    cached_span(combinat, "ssyt_with_pattern", "combinat.ssyt", on_tableaux)

    # symmetrizer
    def on_image(result, args):
        c["symmetrizer.image_terms"] += len(result.terms)

    _replace(t, symmetrizer, "apply_symmetrizer", lambda f: t.span("symmetrizer.apply", f, on_image))
    _replace(t, symmetrizer, "inner_product_reduced", lambda f: t.span("symmetrizer.inner", f))

    # gram
    def on_block(block):
        c["gram.blocks"] += 1
        c["gram.entries"] += block.size * block.size
        m["gram.block_size_max"] = max(m["gram.block_size_max"], block.size)

    t.caches["gram.block_misses"] = cached_span(gram, "gram_block", "gram.block", on_block)
    t.caches["gram.symdet_misses"] = cached_span(
        gram, "symmetrization_determinant", "gram.symdet", lambda result: None
    )

    def traced_pool(pool_cls):
        class TracedPool(pool_cls):
            def __enter__(self):
                self._perfbench_frame = t.open()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    t.close("gram.pool", self._perfbench_frame)

        return TracedPool

    _replace(t, gram, "ProcessPoolExecutor", traced_pool)

    # exact
    def on_det(det, args):
        bits = abs(det).bit_length()
        c["exact.det_bits_sum"] += bits
        m["exact.det_bits_max"] = max(m["exact.det_bits_max"], bits)

    _replace(t, exact, "bareiss_det", lambda f: t.span("exact.bareiss", f, on_det))
    for name, span in (
        ("factorint", "exact.factorint"),
        ("poly_factor_rational", "exact.factor_poly"),
        ("interpolate", "exact.interpolate"),
        ("poly_matrix_rank", "exact.poly_rank"),
        ("poly_matrix_det", "exact.poly_det"),
    ):
        _replace(t, exact, name, lambda f, span=span: t.span(span, f))
    _patch_method(t, exact.SquareClassFormula, "reduced", "exact.reduce")

    # refined
    def on_constituent(result):
        c["refined.constituents_present" if result is not None else "refined.constituents_absent"] += 1

    cached_span(refined, "constituent_poly", "refined.constituent", on_constituent)
    _replace(t, refined, "constituent_gram", lambda f: t.span("refined.gram", f))

    def on_embed(result, args):
        if t.scanning:
            c["refined.chains_scanned"] += 1

    def on_symmetrize(result, args):
        c["refined.symmetrize_terms"] += len(result.terms)

    _replace(t, refined, "embed_chain", lambda f: t.span("refined.embed", f, on_embed))
    _replace(t, refined, "symmetrize_tensor", lambda f: t.span("refined.symmetrize", f, on_symmetrize))
    _patch_method(t, refined.ConcreteTensor, "dot", "refined.dot")

    def traced_scan(scan):
        @functools.wraps(scan)
        def wrapper(*args, **kwargs):
            chains = scan(*args, **kwargs)
            while True:
                t.scanning += 1
                try:
                    chain = next(chains)
                except StopIteration:
                    return
                finally:
                    t.scanning -= 1
                c["refined.chains_surviving"] += 1
                yield chain

        return wrapper

    _replace(t, refined, "_nonzero_chains", traced_scan)

    # cli: serialization and printing of the result
    class TracedJson:
        def __getattr__(self, name):
            return getattr(json, name)

        dumps = staticmethod(t.span("cli.render", json.dumps))

    cli.json = TracedJson()
    cli.print = t.span("cli.render", builtins.print)
    for name in ("_render_sym_text", "_render_sym_latex"):
        _replace(t, cli, name, lambda f: t.span("cli.render", f))


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    from symdet.cli import main as cli_main

    code = 1
    try:
        code = cli_main(argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        for key, cached in tracer.caches.items():
            if hasattr(cached, "cache_info"):
                tracer.counts[key] = cached.cache_info().misses
        sys.stderr.write(MARK + json.dumps(tracer.report()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
