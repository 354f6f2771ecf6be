"""Span tracing of vclab's layers from outside the package.

``Tracer.install`` replaces each traced function or method with a wrapper
that records a span: calls and self time (span time minus the time of
nested spans), keyed by the span's name and its parent's name.  A
module-level function is replaced in every vclab module (and the package
namespace) that bound it by value, e.g. ``cli.estimate_pac_probability``,
``formula.halfspace_dichotomies`` and ``harness.true_error``, so a call
reaches the wrapper however it was imported.  ``uninstall`` restores the
originals, so untraced passes run the unmodified code.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import wraps
from time import perf_counter

# (span name, module, attribute path).  Several entries may share one span
# name.  "model.HypothesisSpace.dichotomy_count" and "harness.trial_seed"
# are traced only for their counts: subsets queried by vc_dimension, and
# Monte Carlo trials.  An entry whose function no longer exists is skipped,
# so a layer that a later change removes reports 0.
SPANS = (
    ("cli.main", "vclab.cli", "main"),
    ("serialize.load", "vclab.serialize", "space_from_json"),
    ("serialize.load", "vclab.serialize", "distribution_from_json"),
    ("combinatorics.vc_dimension", "vclab.combinatorics", "vc_dimension"),
    ("combinatorics.growth_function", "vclab.combinatorics", "growth_function"),
    ("model.HypothesisSpace.dichotomy_count", "vclab.model",
     "HypothesisSpace.dichotomy_count"),
    ("model.HypothesisSpace.dichotomy_count", "vclab.model",
     "ExplicitSpace.dichotomy_count"),
    ("spaces.HalfspaceSpace.dichotomies", "vclab.spaces",
     "HalfspaceSpace.dichotomies"),
    ("spaces.halfspace_dichotomies", "vclab.spaces", "halfspace_dichotomies"),
    ("spaces.fm_witness", "vclab.spaces", "fm_witness"),
    ("spaces.threshold_dichotomies", "vclab.spaces", "threshold_dichotomies"),
    ("formula.DefinableSpace.dichotomies", "vclab.formula",
     "DefinableSpace.dichotomies"),
    ("formula.eval_formula", "vclab.formula", "eval_formula"),
    ("model.MultiSample.label_counts", "vclab.model", "MultiSample.label_counts"),
    ("model.MultiSample.instances_sorted", "vclab.model",
     "MultiSample.instances_sorted"),
    ("model.true_error", "vclab.model", "true_error"),
    ("model.ExplicitSpace.dichotomies", "vclab.model", "ExplicitSpace.dichotomies"),
    ("learners.LearningFunction.__call__", "vclab.learners",
     "LearningFunction.__call__"),
    ("harness.draw_multisample", "vclab.harness", "draw_multisample"),
    ("harness.trial_seed", "vclab.harness", "trial_seed"),
    ("harness.estimate_pac_probability", "vclab.harness",
     "estimate_pac_probability"),
    ("harness.estimate_ucp_probability", "vclab.harness",
     "estimate_ucp_probability"),
    ("nfl.build_nfl_instance", "vclab.nfl", "build_nfl_instance"),
    ("nfl.nfl_report", "vclab.nfl", "nfl_report"),
)

FEASIBLE = "spaces.fm_witness.feasible"


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()      # (name, parent name) -> calls
        self.self_s: Counter = Counter()     # name -> seconds
        self.events: Counter = Counter()     # e.g. feasible FM outcomes
        self._stack: list[list] = []         # [name, time in child spans]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack, calls, self_s, events = (self._stack, self.calls, self.self_s,
                                        self.events)
        counts_feasible = name == "spaces.fm_witness"

        @wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[name] += dt - frame[1]
                calls[name, parent] += 1
                if stack:
                    stack[-1][1] += dt
            if counts_feasible and result is not None:
                events[FEASIBLE] += 1
            return result

        return span

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = [m for n, m in sys.modules.items()
                   if m is not None and (n == "vclab" or n.startswith("vclab."))]
        for name, module, path in SPANS:
            owner = sys.modules.get(module)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls, None)
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            targets = [(owner, attr)]
            if not classes:
                # Every module that bound the function by value.
                targets = [(m, a) for m in package
                           for a, v in vars(m).items() if v is original]
            for target, a in targets:
                self._patches.append((target, a, original))
                setattr(target, a, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def take(self) -> tuple[Counter, Counter, Counter]:
        """Return the calls, self times and events recorded since the last
        take, and start afresh."""
        out = Counter(self.calls), Counter(self.self_s), Counter(self.events)
        for c in (self.calls, self.self_s, self.events):
            c.clear()
        return out


def count(calls: Counter, name: str, parent: str | None = None) -> int:
    """Calls of span ``name``, optionally only those nested directly in span
    ``parent``."""
    return sum(c for (n, p), c in calls.items()
               if n == name and (parent is None or p == parent))
