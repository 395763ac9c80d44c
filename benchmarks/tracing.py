"""Outside-in layer tracing for the fibmod benchmark.

The tracer swaps a timing wrapper into every module attribute through
which one fibmod layer calls another (``wss.is_prime``, ``pisano.factorize``,
``pisano.pisano_fast`` as ``verify`` reaches it, and so on) and puts the
original objects back when it exits.  Nothing inside the package is
edited, and an untraced run never constructs a Tracer.

Each wrapper pushes a slot on a shared stack; on return it adds its elapsed
time to the parent's slot, so a span's self time is its duration minus the
time of the traced spans nested inside it.  The root span opened by
``Tracer.root`` collects what no wrapper claims (the benchmark's own loop,
``goodness_report`` glue, ``_scan_block``), so the self times of all spans
add up to the root's wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

ROOT = "trace.root"

# Layer functions wrapped in a traced run, named module.function after the
# module that defines them.  Every binding of the same function object in
# any fibmod module is wrapped, so calls are counted wherever they come from.
TARGETS = (
    "arith.primes_in_range",
    "arith.is_prime",
    "arith.factorize",
    "fib.fib_pair_mod",
    "fib.matrix_pow_mod",
    "fib.fib_exact",
    "pisano.prime_period",
    "pisano.lifting_exponent",
    "pisano.pisano_fast",
    "pisano.pisano_direct",
    "pisano.zero_count",
    "pisano.zero_count_direct",
    "pisano.rank_of_apparition",
    "classify.is_good_fast",
    "classify.is_good_direct",
    "wss.wss_check",
    "wss.scan_wss",
    "verify.suite_identities",
    "verify.suite_pisano",
    "verify.suite_classify",
    "verify.suite_wss",
)


def resolve(targets):
    """Map each 'module.function' name to the fibmod function object it names."""
    functions = {}
    for name in targets:
        module, function = name.split(".")
        functions[name] = getattr(sys.modules[f"fibmod.{module}"], function)
    return functions


class Tracer:
    """Counts calls and accumulates inclusive and self time per wrapped function.

    ``functions`` maps a span name to the function object to wrap;
    ``modules`` are the namespaces whose bindings of those objects are
    replaced.  Use as a context manager: wrappers are installed on entry
    and every patched attribute is restored on exit, also on error.
    """

    def __init__(self, functions: dict, modules, clock=time.perf_counter):
        self.functions = functions
        self.modules = list(modules)
        self.clock = clock
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        clock, stack = self.clock, self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - nested
                total_s[name] += elapsed
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def __enter__(self):
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.functions.items()}
        try:
            for module in self.modules:
                for attr, value in list(vars(module).items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextmanager
    def root(self):
        """Span around the whole timed region; its self time is the
        part of the wall time that no wrapped function accounts for."""
        stack = self._stack
        stack.append(0.0)
        start = self.clock()
        try:
            yield
        finally:
            elapsed = self.clock() - start
            self.self_s[ROOT] += elapsed - stack.pop()
            self.total_s[ROOT] += elapsed
            self.calls[ROOT] += 1

    def balance_error(self) -> float:
        """|sum of all self times - root wall time|; zero up to rounding."""
        return abs(sum(self.self_s.values()) - self.total_s[ROOT])
