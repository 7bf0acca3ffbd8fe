"""Span tracing of frobcode's public functions, from outside the package.

``Tracer.install`` replaces each function in ``TARGETS`` at every module
attribute that binds it (``cyclic_span`` is bound in ``lincode``,
``bounds`` and ``families``, for example) and ``LinearCode.__init__``
on the class, so calls between layers are captured without touching
``src/``.  Per-word helpers (``ell``, ``support``, ``word_add``,
``scale_word``) are not wrapped: the wrapper would cost more than the
call.

Spans live in flat arrays while the run lasts and are written out as
JSONL when it ends.  A span's self time is its duration minus the
durations of its child spans; calls are synchronous and single-threaded,
so children never overlap and the subtraction is exact.
"""

from __future__ import annotations

import functools
import json
from array import array
from collections import defaultdict
from time import perf_counter

MODULES = ("rings", "homweight", "lincode", "bounds", "families", "cli")

TARGETS = (
    ("rings", ("parse_ring_spec", "build_ring", "is_generating_character",
               "principal_ideal", "minimal_left_ideals", "radical")),
    ("homweight", ("hom_weight_table", "cyclotomic_reduce", "verify_axioms",
                   "solve_weight_axioms", "extend_weight")),
    ("lincode", ("read_generator_rows", "build_code", "code_from_words", "shorten",
                 "residual", "coset_average", "cyclic_span")),
    ("bounds", ("check_all", "averaging_bound", "best_plotkin_refined", "plotkin_minham",
                "plotkin_minimal_ideal", "singleton_P", "singleton_Q", "singleton_weak",
                "max_cyclic_size")),
    ("families", ("simplex", "hjelmslev_line", "residual_chain")),
    ("cli", ("main",)),
)

BOUND_NAMES = ("averaging", "plotkin-refined", "plotkin-minham", "plotkin-minimal-ideal",
               "singleton-P", "singleton-Q", "singleton-weak")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work counters, taken at the call boundary from arguments and results.

def _count_build_ring(tracer, args, kwargs, ring):
    tracer.counts["rings.build_ring.entries"] += ring.size * ring.size


def _count_solve(tracer, args, kwargs, result):
    tracer.counts["homweight.solve_weight_axioms.unknowns"] += len(result)


def _count_extend(tracer, args, kwargs, result):
    tracer.counts["homweight.extend_weight.coords"] += len(_arg(args, kwargs, 1, "word"))


def _count_build_code(tracer, args, kwargs, code):
    rows = _arg(args, kwargs, 1, "rows")
    tracer.counts["lincode.build_code.messages"] += code.ring.size ** len(rows)
    tracer.counts["lincode.build_code.words"] += code.size


def _count_code_init(tracer, args, kwargs, result):
    tracer.counts["lincode.LinearCode.init.words"] += len(args[0].word_order)


def _count_cyclic_span(tracer, args, kwargs, result):
    ring = _arg(args, kwargs, 0, "ring")
    tracer.distinct_spans.add(hash((ring.name, tuple(_arg(args, kwargs, 1, "word")))))


def _count_max_cyclic(tracer, args, kwargs, result):
    tracer.counts["bounds.max_cyclic_size.words"] += len(_arg(args, kwargs, 0, "code").word_order)


def _count_check_all(tracer, args, kwargs, reports):
    for report in reports:
        if report.applicable and not report.satisfied:
            tracer.counts[f"bounds.violated.{report.bound}"] += 1


def _count_chain(tracer, args, kwargs, chain):
    tracer.counts["families.residual_chain.stages"] += len(chain.stages)


COUNTERS = {
    "rings.build_ring": _count_build_ring,
    "homweight.solve_weight_axioms": _count_solve,
    "homweight.extend_weight": _count_extend,
    "lincode.build_code": _count_build_code,
    "lincode.LinearCode.init": _count_code_init,
    "lincode.cyclic_span": _count_cyclic_span,
    "bounds.max_cyclic_size": _count_max_cyclic,
    "bounds.check_all": _count_check_all,
    "families.residual_chain": _count_chain,
}


class Tracer:
    """In-memory span recorder; ``enabled`` is switched off around checks."""

    def __init__(self):
        self.names: list[str] = []
        self.name_code: array = array("H")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("i")
        self.job: array = array("i")
        self.stack = [-1]
        self.job_id = -1
        self.enabled = True
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct_spans: set[int] = set()
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, label: str, fn):
        code = len(self.names)
        self.names.append(label)
        count = COUNTERS.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = len(self.start)
            self.name_code.append(code)
            self.parent.append(self.stack[-1])
            self.job.append(self.job_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap every target at every module attribute of ``package`` bound to it."""
        modules = [package] + [getattr(package, name) for name in MODULES]
        for module_name, functions in TARGETS:
            home = getattr(package, module_name)
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)
        cls = package.lincode.LinearCode
        self._restore.append((cls, "__init__", cls.__init__))
        cls.__init__ = self.wrap("lincode.LinearCode.init", cls.__init__)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write_jsonl(self, path) -> None:
        """One header line with the name table, then ``[name, start, end, parent, job]`` per span."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"names": self.names}) + "\n")
            chunk = []
            for i in range(len(self.start)):
                chunk.append(f"[{self.name_code[i]},{self.start[i]!r},{self.end[i]!r},"
                             f"{self.parent[i]},{self.job[i]}]\n")
                if len(chunk) >= 10000:
                    out.write("".join(chunk))
                    chunk.clear()
            out.write("".join(chunk))

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time and counters per span name."""
        selfs = self_times(self.start, self.end, self.parent)
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for code, value in zip(self.name_code, selfs):
            calls[self.names[code]] += 1
            self_s[self.names[code]] += value
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update(self.counts)
        out["lincode.cyclic_span.distinct"] = len(self.distinct_spans)
        return out

    def root_time(self) -> float:
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0)


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    selfs = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            selfs[p] -= end[i] - start[i]
    return selfs
