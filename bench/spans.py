"""Call tracing for the traced benchmark run.

The tracer wraps public functions of the ``ringcode`` modules by rebinding
every module attribute that refers to the original function, so callers
that look the name up at call time (``network.add``, ``dominance.
maximal_partitions``, ``cli``'s ``partitions.maximal_partitions``) go
through the wrapper.  Wrappers are bound only while a job runs and are
always restored afterwards, so the benchmark's own answer checks and the
untraced passes call the original functions.

Most wrapped functions record one span per call: name, start, end, parent
span and job id.  Ring arithmetic is only counted, because a single solve
makes millions of those calls.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# Functions recorded as spans, per ringcode module.
SPANNED = {
    "rings": ("elements", "subring_inclusion"),
    "network": (
        "solve_brute",
        "decode_search",
        "validate",
        "transfer",
        "verify",
        "choose_two_field_solution",
        "product_code",
        "map_code",
        "lift_subring",
        "code_to_json",
        "code_from_json",
    ),
    "partitions": ("maximal_partitions", "is_maximal", "enumerate_partitions"),
    "dominance": ("catalog_dominates", "check_certificate", "maximal_rings"),
    "cli": ("run",),
}

# Functions that are only counted: too many calls to span.
COUNTED = {
    "rings": ("add", "mul", "neg", "inverse"),
    "partitions": ("divides",),
}

# Ratio metrics: outcomes of a function's calls that a judge accepts, over
# all its calls.
OUTCOMES = {
    "network.decode_search": ("network.decode_search.ok_ratio", lambda r: r is not None),
    "partitions.is_maximal": ("partitions.is_maximal.true_ratio", bool),
    "dominance.catalog_dominates": (
        "dominance.unknown_ratio",
        lambda verdict: verdict.relation.name == "UNKNOWN",
    ),
}

# Which end-to-end metric each layer metric is expected to move, and where.
LAYER_MOVES = {
    "rings.*.calls, rings.elements.s, rings.subring_inclusion.s, "
    "rings.add.ns_per_op, rings.mul.ns_per_op":
        "wall_s and job_p90_ms on solve; wall_s on codes; nothing on theory",
    "network.solve_brute.calls/.s/.self_s": "job_p50_ms on solve",
    "network.decode_search.calls/.s/.ok_ratio": "wall_s on solve",
    "network.validate, transfer, verify, choose_two_field_solution, "
    "product_code, map_code, lift_subring, code_to_json, code_from_json":
        "wall_s on codes",
    "partitions.*": "wall_s on theory",
    "dominance.catalog_dominates, check_certificate, maximal_rings":
        "job_p50_ms on theory",
    "dominance.unknown_ratio": "no time metric (honesty of dominance verdicts)",
    "cli.run.calls/.s": "wall_s on theory",
    "trace.overhead_s": "none (cost of tracing itself)",
}


class Tracer:
    """Spans and call counts for the ringcode functions named above."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.child_s: list[float] = []
        self.counts: dict[str, list[int]] = {}
        self.outcomes: dict[str, list[int]] = {}
        self.missing: list[str] = []
        self.job = -1
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []

    def prepare(self) -> None:
        """Build the wrappers and find every binding of each original.

        Call after ``ringcode`` is imported; the package and all its
        submodules are searched for attributes that are the original.
        """
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "ringcode" or name.startswith("ringcode.")
        ]
        for module, funcs in SPANNED.items():
            for func in funcs:
                self._bind(modules, module, func, spanned=True)
        for module, funcs in COUNTED.items():
            for func in funcs:
                self._bind(modules, module, func, spanned=False)

    def _bind(self, modules, module: str, func: str, spanned: bool) -> None:
        name = f"{module}.{func}"
        original = getattr(sys.modules[f"ringcode.{module}"], func, None)
        if original is None:  # gone from the library: reported with 0 calls
            self.missing.append(name)
            self.counts[name] = [0]
            self.outcomes[name] = [0]
            return
        if spanned:
            wrapper = self._spanned(name, original)
        else:
            wrapper = self._counted(name, original)
        for mod in modules:
            for attr, value in vars(mod).items():
                if value is original:
                    self._bindings.append((mod, attr, original, wrapper))

    def _counted(self, name, original):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return original(*args, **kwargs)

        return wrapper

    def _spanned(self, name, original):
        index = len(self.names)
        self.names.append(name)
        cell = self.counts.setdefault(name, [0])
        judge = OUTCOMES[name][1] if name in OUTCOMES else None
        hits = self.outcomes.setdefault(name, [0])
        spans, child_s, stack = self.spans, self.child_s, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            child_s.append(0.0)
            stack.append(slot)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[slot] = (index, start, end, parent, self.job)
                if parent >= 0:
                    child_s[parent] += end - start
            if judge is not None and judge(result):
                hits[0] += 1
            return result

        return wrapper

    def install(self, job: int) -> None:
        self.job = job
        for mod, attr, _original, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, original, _wrapper in reversed(self._bindings):
            setattr(mod, attr, original)

    def wrapped_names(self) -> list[tuple[str, str]]:
        return [(mod.__name__, attr) for mod, attr, _o, _w in self._bindings]

    def layer_metrics(self) -> dict[str, float]:
        """Per-function calls, inclusive seconds, self seconds and ratios."""
        total_s = defaultdict(float)
        self_s = defaultdict(float)
        for (index, start, end, _parent, _job), child in zip(self.spans, self.child_s):
            name = self.names[index]
            total_s[name] += end - start
            self_s[name] += end - start - child
        out: dict[str, float] = {}
        for name, cell in self.counts.items():
            out[f"{name}.calls"] = cell[0]
        for name in self.names + self.missing:
            out[f"{name}.s"] = total_s[name]
            out[f"{name}.self_s"] = self_s[name]
        for name, (metric, _judge) in OUTCOMES.items():
            calls = self.counts[name][0]
            out[metric] = self.outcomes[name][0] / calls if calls else 0.0
        return out

    def write(self, path: Path, jobs: list[str]) -> None:
        """Write all spans as JSON lines, one per span, after the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for job, name in enumerate(jobs):
                fh.write(json.dumps({"job": job, "name": name}) + "\n")
            for slot, (index, start, end, parent, job) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "span": slot,
                            "name": self.names[index],
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "job": job,
                        }
                    )
                    + "\n"
                )
