"""Layer tracing from outside the library.

The tracer replaces public functions and methods of the library's modules
with wrappers that record a span (name, start, end, parent span, job id)
in memory, plus counts taken at the same boundary. Span times are CPU
seconds of the process (``time.process_time``), the clock of the job
times. A name a module imported directly (``from .polynomials import
squarefree_part``) is a separate binding, so every newtonbench module
binding the same object is patched too. ``installed()`` restores every
original on exit, so untraced runs execute the library unchanged.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# takes (call args, result), yields (count name, amount)
CountFn = Callable[[tuple, object], Iterable[Tuple[str, float]]]


def _exact_bits(args, poly):
    yield "families.exact_bits", sum(c.numerator.bit_length() + c.denominator.bit_length()
                                     for c in poly.coeffs)


# (module, attribute, span name, counter). "Class.attr" names a method.
SPANS: Tuple[Tuple[str, str, str, Optional[CountFn]], ...] = (
    ("enumeration", "enumerate_and_refute", "enumeration.refute", None),
    ("enumeration", "find_decider", "enumeration.witness",
     lambda a, r: [("enumeration.decided", r is not None)]),
    ("enumeration", "generic_path_classes", "enumeration.sweep",
     lambda a, r: [("enumeration.path_classes", len(r))]),
    ("enumeration", "count_canonical_trees", "enumeration.count",
     lambda a, r: [("enumeration.canonical_trees", r)]),
    ("polynomials", "DensePoly.__mul__", "polynomials.mul", None),
    ("polynomials", "DensePoly.__divmod__", "polynomials.divmod", None),
    ("polynomials", "DensePoly.gcd", "polynomials.gcd", None),
    ("polynomials", "squarefree_part", "polynomials.squarefree_part", None),
    ("polynomials", "from_roots", "polynomials.from_roots", None),
    ("polynomials", "coefficient_valuations", "polynomials.coefficient_valuations", None),
    ("families", "gen_exact", "families.gen_exact", _exact_bits),
    ("families", "gen_valued", "families.gen_valued", None),
    ("valuation", "val_p", "valuation.val_p", None),
    ("valuation", "format_rational", "valuation.format_rational", None),
    ("polygon", "lower_hull", "polygon.lower_hull",
     lambda a, r: [("polygon.lower_hull.points", len(a[0].entries))]),
    ("polygon", "polygon_report", "polygon.polygon_report", None),
    ("certificates", "make_certificate", "certificates.make_certificate", None),
    ("certificates", "subset_sums_distinct", "certificates.subset_sums",
     lambda a, r: [("certificates.subset_sums.sums", r[0])]),
    ("trees", "RatFunc.arith", "trees.ratfunc_arith", None),
    ("trees", "decides", "trees.decides", None),
)
# Counted without a span: constructing polynomials is too frequent to time.
NEW_POLY = "polynomials.new.calls"

JOB_ROOT = "cli.main"


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        # (name id, start, end, parent span index or -1, job id)
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.job = -1
        self._stack: List[int] = []  # indices of the open spans, outermost first

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, counter: Optional[CountFn] = None) -> Callable:
        nid = self._id(name)
        spans, stack, clock, counts = self.spans, self._stack, time.process_time, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append((nid,))  # completed when the call returns
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.job)
            if counter is not None:
                for key, n in counter(args, result):
                    counts[key] += n
            return result

        return traced

    def count(self, key: str, n: float) -> None:
        self.counts[key] += n

    @contextmanager
    def installed(self):
        """Patch every traced name in every loaded newtonbench module; restore on exit."""
        patches: List[Tuple[object, str, object]] = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "newtonbench" or name.startswith("newtonbench."))]

        def patch(owner, attr, new) -> None:
            patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        try:
            for module, attr, name, counter in SPANS:
                owner = sys.modules[f"newtonbench.{module}"]
                cls_name, _, meth = attr.rpartition(".")
                if cls_name:
                    owner = getattr(owner, cls_name)
                    attr = meth
                original = owner.__dict__[attr]
                wrapper = self.wrap(name, original, counter)
                # aliases of a method (DensePoly.__rmul__ = __mul__) and
                # direct imports of a function elsewhere in the package
                holders = [owner] if cls_name else modules
                for holder in holders:
                    for key, value in list(holder.__dict__.items()):
                        if value is original:
                            patch(holder, key, wrapper)
            dense = sys.modules["newtonbench.polynomials"].DensePoly
            init = dense.__dict__["__init__"]
            counts, stack, spans = self.counts, self._stack, self.spans
            job_root = self._id(JOB_ROOT)

            def counted_init(*args, **kwargs):
                # like every other count, only inside a job: not in the phase probes
                if stack and spans[stack[0]][0] == job_root:
                    counts[NEW_POLY] += 1
                return init(*args, **kwargs)

            patch(dense, "__init__", counted_init)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- aggregation ------------------------------------------------------------

    def layer_totals(self) -> Dict[str, float]:
        """Totals over all jobs: ``<span>.s`` (outermost spans of a name), ``<span>.calls``,
        ``<span>.self_s`` and ``<module>.self_s``, for spans under job roots; probe roots
        (phase functions the benchmark calls itself) report only their own ``.s``."""
        spans = self.spans
        n = len(spans)
        root = [0] * n
        child_time = [0.0] * n
        for i, (nid, start, end, parent, _job) in enumerate(spans):
            if parent < 0:
                root[i] = nid
            else:
                root[i] = root[parent]
                child_time[parent] += end - start
        job_root = self._ids.get(JOB_ROOT)
        out: Dict[str, float] = defaultdict(float)
        for i, (nid, start, end, parent, _job) in enumerate(spans):
            name = self.names[nid]
            dur = end - start
            if parent < 0 and root[i] != job_root:
                out[f"{name}.s"] += dur  # a probe root
                continue
            if root[i] != job_root:
                continue
            self_time = dur - child_time[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_time
            out[f"{name.split('.')[0]}.self_s"] += self_time
            if not self._nested_in_same(i, nid):
                out[f"{name}.s"] += dur
        return out

    def _nested_in_same(self, i: int, nid: int) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == nid:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: Path) -> None:
        """Write every span as TSV, times in CPU seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tjob\n")
            for i, (nid, start, end, parent, job) in enumerate(self.spans):
                fh.write(f"{i}\t{self.names[nid]}\t{start - t0:.9f}\t{end - t0:.9f}"
                         f"\t{parent}\t{job}\n")
