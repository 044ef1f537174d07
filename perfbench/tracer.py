"""Per-layer tracing of the markedgroups package from outside it.

The tracer replaces chosen module-level functions with timing wrappers in
every ``markedgroups`` namespace that holds them (``is_trivial`` is bound in
both ``grigorchuk`` and ``handles``, for instance), and puts the originals
back afterwards. Nothing under ``src/`` is edited. Calls made through a
reference captured before install (a closure default, a dict of callables)
are not seen.

Every wrapped function is aggregated as a call count plus self time: its
duration minus the time spent in wrapped functions it called. Coarse
boundaries (``cli.main``, the public ``marked_space`` functions, the
certification entry points) additionally record one span each, with a parent
id, kept in memory until the pass ends. Hot leaves get no spans, so a pass
with millions of leaf calls keeps a bounded trace.

The call stack is a single list: traced passes must run single-threaded.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

PACKAGE = "markedgroups"

# leaves: aggregated only
LEAVES = (
    "grigorchuk.level_permutation",
    "grigorchuk.is_trivial",
    "grigorchuk.limit_trivial",
    "grigorchuk.translate_L_word",
    "words.klein_reduce",
    "words.gen_word_from_free",
    "lamplighter.lamp_multiply",
    "lamplighter.eval_st_word",
    "lamplighter.ext_multiply",
    "lamplighter.eval_abcd_word",
    "sampling.sample_alternating_word",
    "circle_product.gp_reduce",
    "circle_product.in_difference_set",
)

# coarse boundaries: aggregated and recorded as spans; every public function
# of marked_space is added at install time
SPANS = (
    "cli.main",
    "circle_product.verify_minimality",
    "lamplighter.structure_report",
)


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _public_functions(module_name: str) -> list[str]:
    mod = sys.modules.get(f"{PACKAGE}.{module_name}")
    if mod is None:
        return []
    return sorted(
        f"{module_name}.{attr}"
        for attr, val in vars(mod).items()
        if not attr.startswith("_")
        and callable(val)
        and not isinstance(val, type)
        and getattr(val, "__module__", None) == mod.__name__
    )


class Tracer:
    """Wraps, times and restores package functions for one traced pass."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._open_spans: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: set[int] = set()

    def _wrap(self, name: str, fn, span: bool):
        stack = self._stack
        open_spans = self._open_spans
        calls = self.calls
        self_s = self.self_s
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if span:
                span_id = len(spans)
                spans.append({"id": span_id, "parent": open_spans[-1] if open_spans else None, "name": name})
                open_spans.append(span_id)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                calls[name] += 1
                self_s[name] += dt - frame[0]
                if span:
                    open_spans.pop()
                    spans[span_id]["start"] = t0
                    spans[span_id]["end"] = t1
                    spans[span_id]["self_s"] = dt - frame[0]

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap every target in every package namespace that binds it."""
        modules = _package_modules()
        span_names = list(SPANS) + _public_functions("marked_space")
        targets = [(name, False) for name in LEAVES] + [(name, True) for name in span_names]
        for name, span in targets:
            module_name, attr = name.split(".")
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, span)
            self._wrappers.add(id(wrapper))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> list[str]:
        """Restore the originals; return every binding that is still wrapped."""
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches = []
        return [
            f"{mod.__name__}.{key}"
            for mod in _package_modules()
            for key, val in vars(mod).items()
            if id(val) in self._wrappers
        ]


def cache_counters() -> tuple[dict[str, int], list[str]]:
    """Process-global memo sizes and hit counts, read from outside.

    A memo that no longer exists is reported in the second list instead of
    failing, so the benchmark keeps running when a memo is removed.
    """
    counters: dict[str, int] = {}
    absent: list[str] = []
    grig = sys.modules.get(f"{PACKAGE}.grigorchuk")
    cp = sys.modules.get(f"{PACKAGE}.circle_product")

    memo = getattr(grig, "_is_trivial_reduced", None)
    if hasattr(memo, "cache_info"):
        info = memo.cache_info()
        counters.update({"grigorchuk.memo.hits": info.hits, "grigorchuk.memo.misses": info.misses, "grigorchuk.memo.size": info.currsize})
    else:
        absent += ["grigorchuk.memo.hits", "grigorchuk.memo.misses", "grigorchuk.memo.size"]

    perms = getattr(grig, "_LETTER_PERM_CACHE", None)
    if perms is not None:
        counters["grigorchuk.letter_perm_cache.entries"] = len(perms)
    else:
        absent.append("grigorchuk.letter_perm_cache.entries")

    diffset = getattr(cp, "_in_difference_set", None)
    if hasattr(diffset, "cache_info"):
        info = diffset.cache_info()
        counters.update({"circle_product.diffset_memo.hits": info.hits, "circle_product.diffset_memo.misses": info.misses})
    else:
        absent += ["circle_product.diffset_memo.hits", "circle_product.diffset_memo.misses"]
    return counters, absent
