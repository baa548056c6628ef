"""Span tracing of fedleak's layers, from outside the package.

`Tracer.installed()` replaces each public function listed in TARGETS, in
the module namespace its caller looks it up in, with a wrapper that
records a span (name, start, end, parent) and, for a few functions, work
counts taken from the arguments or the result. The originals are put back
on exit. Nothing under src/ is edited, and an untraced run executes none
of this code.
"""

import functools
import importlib
import time
from contextlib import contextmanager


def _count_softmax_rows(counters, args, kwargs, result):
    draws = args[0] if args else kwargs["draws"]
    rows, cols = draws.shape
    counters["kernels.mean_softmax.rows"] += rows
    counters["kernels.mean_softmax.bytes_computed"] += rows * cols * 8


def _count_solver(counters, args, kwargs, result):
    _, info = result
    counters["attack.solve_simplex_ls.iterations"] += info["iterations"]
    counters["attack.solve_simplex_ls.unconverged"] += 0 if info["converged"] else 1


# (module the caller looks the name up in, attribute, span name, counter).
# A function imported by name into another module is wrapped there, as that
# module sees it: nn.backward is the one fedsim calls, kernels.mean_softmax
# the one attack calls. Span names use "kernels" for the _kernels module,
# because a metric name must start with a letter or a digit.
TARGETS = (
    ("fedleak.cli", "_build_world", "cli.build_world", None),
    ("fedleak.fedsim", "run_round", "fedsim.run_round", None),
    ("fedleak.fedsim", "local_train", "fedsim.local_train", None),
    ("fedleak.fedsim", "server_aggregate", "fedsim.server_aggregate", None),
    ("fedleak.fedsim", "scaffold_update_control", "fedsim.scaffold_update_control", None),
    ("fedleak.fedsim", "backward", "nn.backward", None),
    ("fedleak.fedsim", "accuracy", "nn.accuracy", None),
    ("fedleak.attack", "rlu_attack", "attack.rlu_attack", None),
    ("fedleak.attack", "estimate_moments", "attack.estimate_moments", None),
    ("fedleak.attack", "forward_batch", "nn.forward_batch", None),
    ("fedleak.attack", "mc_confusion", "attack.mc_confusion", None),
    ("fedleak.attack", "scheme_coefficients", "attack.scheme_coefficients", None),
    ("fedleak.attack", "make_target", "attack.make_target", None),
    ("fedleak.attack", "solve_simplex_ls", "attack.solve_simplex_ls", _count_solver),
    ("fedleak.attack", "pgd_simplex_ls", "kernels.pgd_simplex_ls", None),
    ("fedleak.attack", "posterior_search", "attack.posterior_search", None),
    ("fedleak.attack", "mean_softmax", "kernels.mean_softmax", _count_softmax_rows),
)

SPAN_NAMES = tuple(t[2] for t in TARGETS)
COUNTER_NAMES = (
    "kernels.mean_softmax.rows",
    "kernels.mean_softmax.bytes_computed",
    "attack.solve_simplex_ls.iterations",
    "attack.solve_simplex_ls.unconverged",
)


class Tracer:
    """In-memory spans and counters of one traced experiment.

    spans[i] is [name, start, end, parent index or -1]; times come from
    time.perf_counter, in seconds. Calls are single-threaded, so a span's
    children never overlap each other.
    """

    def __init__(self):
        self.spans = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._stack = []

    def wrap(self, name, fn, count=None):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Swap every TARGETS function for its wrapper; restore on exit."""
        saved = []
        try:
            for module_name, attr, name, count in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self, wall_s: float) -> dict:
        """Per-span calls, total ms and self ms, the counters, and coverage.

        Self time is a span's duration minus the time its direct children
        cover. Coverage is the share of wall_s inside some top-level span.
        """
        calls = dict.fromkeys(SPAN_NAMES, 0)
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        child = [0.0] * len(self.spans)
        covered = 0.0
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent < 0:
                covered += end - start
            else:
                child[parent] += end - start
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.ms"] = total[name] * 1000.0
            out[f"{name}.self_ms"] = self_s[name] * 1000.0
            out[f"{name}.share"] = total[name] / wall_s
        out.update(self.counters)
        out["trace.coverage"] = covered / wall_s
        return out
