"""Spans and counts around the calls into each ``invspec`` module.

Used only by the traced run (``--trace 1``).  :meth:`Tracer.install`
replaces, for the life of the tracer, the module attributes through which
the library calls its own public functions, with wrappers that record a
span (name, start, end, parent) or a count; :meth:`Tracer.uninstall` puts
the originals back.  Nothing inside ``invspec`` is edited.  Counts are taken
only inside a span, so checks that evaluate outputs after a call do not add
to them.
"""
from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

import numpy as np

TIMED = [
    "asymptotics.delta_sequence_s",
    "forward.eigenvalues_s",
    "forward.norming_constants_s",
    "inverse.validate_s",
    "inverse.build_H_s",
    "inverse.kernel_field_s",
    "inverse.recover_q_s",
    "inverse.recover_beta_s",
    "inverse.consistency_s",
    "roundtrip.inverse_pipeline_s",
]
COUNTED = [
    "forward.ode_solves",
    "forward.ode_rhs_evals",
    "forward.eigenpairs",
    "inverse.H_term_evals",
    "inverse.rows_solved",
    "inverse.F_evals",
]
MAXED = ["inverse.condition_max", "inverse.endpoint_spread"]
SELF_TIMED = {"roundtrip.inverse_pipeline_self_s": "roundtrip.inverse_pipeline_s"}


def unit(name: str) -> str:
    if name in COUNTED:
        return "count"
    return "1" if name in MAXED else "s"


class CountingF:
    """Stands in for the FKernel handed to ``solve_kernel_field`` and counts
    point evaluations; every other attribute is the kernel's own."""

    def __init__(self, F, tracer: "Tracer"):
        self._F = F
        self._tracer = tracer

    def __call__(self, x, t):
        self._tracer.count("inverse.F_evals", np.broadcast(np.asarray(x), np.asarray(t)).size)
        return self._F(x, t)

    def __getattr__(self, name):
        return getattr(self._F, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        if self._stack:
            self.counts[name] += n

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self._stack[-1] if self._stack else None])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
        return wrapper

    # -- patching -----------------------------------------------------------

    def _patch(self, module, attr: str, replacement) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        # invspec.roundtrip names the function; the submodule is in sys.modules
        forward, inverse, roundtrip = (importlib.import_module(f"invspec.{m}")
                                       for m in ("forward", "inverse", "roundtrip"))

        real_solve_ivp = forward.solve_ivp

        def solve_ivp(*args, **kwargs):
            sol = real_solve_ivp(*args, **kwargs)
            self.count("forward.ode_solves")
            self.count("forward.ode_rhs_evals", sol.nfev)
            return sol

        real_solve_gl = inverse.solve_gl

        def solve_gl(*args, **kwargs):
            self.count("inverse.rows_solved")
            return real_solve_gl(*args, **kwargs)

        delta_sequence = self.timed("asymptotics.delta_sequence_s", forward.delta_sequence)
        timed_build_H = self.timed("inverse.build_H_s", roundtrip.build_H)

        def build_H(data, beta, n_terms=inverse.DEFAULT_N_TERMS, **kwargs):
            if kwargs.get("delta") is None:
                # HFunction's own length rule; a shorter sequence would be rebuilt inside build_H
                kwargs["delta"] = delta_sequence(beta, max(4 * n_terms, 16384))
            H = timed_build_H(data, beta, n_terms, **kwargs)
            self.count("inverse.H_term_evals", H.n_terms * inverse.H_GRID_SIZE * 2)
            return H

        timed_field = self.timed("inverse.kernel_field_s", roundtrip.solve_kernel_field)

        def solve_kernel_field(F, *args, **kwargs):
            return timed_field(CountingF(F, self), *args, **kwargs)

        self._patch(forward, "solve_ivp", solve_ivp)
        self._patch(forward, "delta_sequence", delta_sequence)
        self._patch(forward, "eigenvalues", self.timed("forward.eigenvalues_s", forward.eigenvalues))
        self._patch(forward, "norming_constants",
                    self.timed("forward.norming_constants_s", forward.norming_constants))
        self._patch(inverse, "solve_gl", solve_gl)
        self._patch(roundtrip, "build_H", build_H)
        self._patch(roundtrip, "solve_kernel_field", solve_kernel_field)
        for attr, name in (("validate", "inverse.validate_s"),
                           ("recover_q", "inverse.recover_q_s"),
                           ("recover_beta", "inverse.recover_beta_s"),
                           ("consistency_suite", "inverse.consistency_s"),
                           ("inverse_pipeline", "roundtrip.inverse_pipeline_s")):
            self._patch(roundtrip, attr, self.timed(name, getattr(roundtrip, attr)))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    # -- summaries ----------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Position to summarise from: the next span and the counts so far."""
        return len(self.spans), Counter(self.counts)

    def summary(self, since: tuple[int, Counter]) -> dict[str, float]:
        """Span time per layer, with self times, and counts since ``since``."""
        first, counts_then = since
        spans = self.spans[first:]
        total = defaultdict(float)
        children = defaultdict(float)
        for name, start, end, parent in spans:
            total[name] += end - start
            if parent is not None and parent >= first:
                children[self.spans[parent][0]] += end - start
        out = {name: total[name] for name in TIMED}
        for self_name, name in SELF_TIMED.items():
            out[self_name] = total[name] - children[name]
        for name in COUNTED:
            out[name] = float(self.counts[name] - counts_then[name])
        return out

    def dump(self) -> list[dict]:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"name": name, "start": start - t0, "end": end - t0, "parent": parent}
                for name, start, end, parent in self.spans]
