"""Spans around toricjac's public functions, recorded from outside.

The tracer replaces a function by a wrapper under the name the caller
looks it up by (a module global or a class attribute) and restores the
original afterwards.  Each call appends one span (name, start, end,
parent span, op id) to an in-memory list; a layer's self time is its
span's duration minus the durations of its child spans.
"""

import functools
import time
from collections import defaultdict

# Spans with this name hold the tracer's own bookkeeping (bit counting of
# rref outputs); they are subtracted from their parent and never reported.
OVERHEAD = "trace.overhead"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, end, parent, op):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op

    def to_list(self):
        return [self.name, self.start, self.end, self.parent, self.op]


class Tracer:
    """Records spans while installed; ``op`` tags the spans of one operation."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.op = None
        self.cells = defaultdict(int)     # span name -> sum of rows*cols in
        self.max_bits = defaultdict(int)  # span name -> largest output entry
        self._stack = []
        self._patches = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), None, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        self._stack.pop()
        span.end = self.clock()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    def wrap_matrix(self, name, fn):
        """Like wrap, for fn(rows, ncols) returning (reduced rows, pivots).

        Adds rows*ncols to the cell count and tracks the bit size of the
        largest output entry; the counting runs in an overhead span.
        """
        @functools.wraps(fn)
        def traced(rows, ncols):
            span = self._open(name)
            try:
                result = fn(rows, ncols)
            finally:
                self._close(span)
            self.cells[name] += len(rows) * ncols
            bits = self._open(OVERHEAD)
            try:
                top = max((max(x.numerator.bit_length(), x.denominator.bit_length())
                           for row in result[0] for x in row), default=0)
                self.max_bits[name] = max(self.max_bits[name], top)
            finally:
                self._close(bits)
            return result
        return traced

    def patch(self, owner, attr, name, matrix=False):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        wrapper = self.wrap_matrix if matrix else self.wrap
        setattr(owner, attr, wrapper(name, original))

    def unpatch(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install(tracer):
    """Wrap every layer function the benchmark reports on.

    Each function is patched under every name it is looked up by.  Some
    toricjac modules bind names at import (``from .groebner import
    is_unit_ideal``), so those are patched in the importing module.
    """
    from toricjac import cli, cox, criterion, divisors, groebner, jacobian, linalg

    tracer.patch(cli, "main", "cli.main")
    tracer.patch(linalg, "rref", "linalg.rref", matrix=True)
    for name in ("kernel", "rank", "reduce_vector"):
        tracer.patch(linalg, name, f"linalg.{name}")
    system = jacobian.JacobianSystem
    for method in ("j0_piece", "j1_piece", "nondegenerate_decide",
                   "saturation_certificate", "multiplication_matrix"):
        tracer.patch(system, method, f"jacobian.{method}")
    tracer.patch(jacobian, "is_unit_ideal", "groebner.is_unit_ideal")
    tracer.patch(groebner, "reduce_poly", "groebner.reduce_poly")
    tracer.patch(groebner, "s_polynomial", "groebner.s_polynomial")
    for owner in (cli, criterion):
        tracer.patch(owner, "evaluate", "criterion.evaluate")
    tracer.patch(cli, "find_rank_g_deformation", "criterion.find_rank_g_deformation")
    for owner in (cli, jacobian, criterion):
        tracer.patch(owner, "monomial_basis", "cox.monomial_basis")
    for owner in (cox, divisors):
        tracer.patch(owner, "polytope", "divisors.polytope")


def self_times(spans):
    """Self time of every span: its duration minus its children's durations.

    The tracer is single-threaded and closes spans in ``finally``, so the
    children of a span are disjoint and lie inside it.
    """
    out = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.end - span.start
    return out


def layer_totals(spans):
    """Per span name: calls, self seconds, and inclusive seconds.

    Inclusive time counts only the outermost span of a name, so a
    recursive call is not counted twice.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    for i, span in enumerate(spans):
        calls[span.name] += 1
        self_s[span.name] += selfs[i]
        if not _has_ancestor(spans, i, span.name):
            total_s[span.name] += span.end - span.start
    return calls, self_s, total_s


def _has_ancestor(spans, i, name):
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def cache_hits(spans, names=("jacobian.j0_piece", "jacobian.j1_piece"),
               work=("linalg.rref", "linalg.kernel")):
    """(hits, calls): calls of ``names`` under which no ``work`` span ran."""
    did_work = set()
    for span in spans:
        if span.name in work:
            p = span.parent
            while p is not None and p not in did_work:
                did_work.add(p)
                p = spans[p].parent
    calls = hits = 0
    for i, span in enumerate(spans):
        if span.name in names:
            calls += 1
            hits += i not in did_work
    return hits, calls
