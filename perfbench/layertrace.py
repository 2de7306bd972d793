"""In-memory tracing of matfan's layers, installed from outside the package.

``Tracer.install()`` replaces public functions of matfan with wrappers
that time each call.  Every wrapped call is a frame; a frame's self time
is its duration minus the durations of the wrapped calls made inside it,
so the self times of all frames plus the tracer's own bookkeeping add up
to the time spent inside the outermost frames.

* Span functions record one span per call: name, start, end, parent span
  and operation id.  ``write_spans`` writes them out at the end.
* Hot functions (``Matroid.rank``, the ``linalg`` solvers,
  ``cone_displacement_intersect``) only add to per-name call counts and
  self time, because one span per call would cost more than the call.

Functions that another module imported by name are patched where they
are bound: ``validation`` holds its own ``divisor_cup``,
``check_balancing``, ``bergman_weight``, ``pairing_terms`` and
``displacement_weights``, ``cli`` its own ``run_check``, while ``fan``
and ``intersect`` reach the solvers through ``linalg.<name>``.
``Tracer.uninstall()`` restores every original, and ``installed()``
lists the wrappers currently in place.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from typing import Any, Callable, Optional

from matfan import charpoly, cli, corpus, fan, intersect, linalg, matroid, schema, validation

_MARK = "_perfbench_traced"


def _facet_count(weight) -> int:
    return len({flag[:i] + flag[i + 1:] for flag in weight.weights for i in range(len(flag))})


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        self.stack: list[list[int]] = []  # [child_ns, span_id] per open frame
        self.spans: list[Optional[tuple]] = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.bookkeeping_ns = 0
        self.op: Optional[str] = None
        self._undo: list[tuple[Any, str, Any]] = []
        self._last_pair: Optional[tuple] = None

    # -- frames --------------------------------------------------------

    def _enter(self, hot: bool) -> list[int]:
        span_id = -1
        if not hot:
            span_id = len(self.spans)
            self.spans.append(None)
        frame = [0, span_id]
        self.stack.append(frame)
        return frame

    def _leave(self, name: str, frame: list[int], start: int, end: int) -> None:
        self.stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_ns[name] += duration - frame[0]
        if self.stack:
            self.stack[-1][0] += duration
        if frame[1] >= 0:
            parent = next((f[1] for f in reversed(self.stack) if f[1] >= 0), -1)
            self.spans[frame[1]] = (name, start, end, parent, self.op)

    def _charge(self, start: int) -> None:
        """Move the time since `start` out of the enclosing frame's self time."""
        spent = self.clock() - start
        self.bookkeeping_ns += spent
        if self.stack:
            self.stack[-1][0] += spent

    def frame(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span frame named `name`."""
        frame = self._enter(hot=False)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self._leave(name, frame, start, self.clock())

    # -- wrapping ------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str, hot: bool = False,
             before: Optional[Callable] = None, after: Optional[Callable] = None) -> None:
        """Replace owner.attr by a timed wrapper.

        before(*args) runs ahead of the call and its value reaches
        after(note, result, exc, *args); both are bookkeeping, charged to
        the tracer and not to any layer.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            note = None
            if before is not None:
                t = tracer.clock()
                note = before(*args, **kwargs)
                tracer._charge(t)
            frame = tracer._enter(hot)
            start = tracer.clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer._leave(name, frame, start, tracer.clock())
                if after is not None:
                    t = tracer.clock()
                    after(note, None, exc, *args, **kwargs)
                    tracer._charge(t)
                raise
            tracer._leave(name, frame, start, tracer.clock())
            if after is not None:
                t = tracer.clock()
                after(note, result, None, *args, **kwargs)
                tracer._charge(t)
            return result

        setattr(wrapper, _MARK, True)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        w = self.wrap
        count = self.counts

        # linalg: reached through the module by fan and intersect.
        w(linalg, "solve_in_span", "linalg.solve_in_span", hot=True)
        w(linalg, "solve_square_int", "linalg.solve_square_int", hot=True)

        # matroid: rank and the flat methods live on the base class and no
        # subclass overrides them; each backend computes in `_rank_impl`.
        w(matroid.Matroid, "rank", "matroid.rank", hot=True)
        for cls in _matroid_classes()[1:]:
            if "_rank_impl" in cls.__dict__:
                w(cls, "_rank_impl", "matroid.rank.compute", hot=True)
        for method in ("flat_strata", "independent_set_counts", "simplify"):
            w(matroid.Matroid, method, f"matroid.{method}")

        # charpoly: reduced_char_poly calls char_poly inside its module.
        w(charpoly, "char_poly", "charpoly.char_poly")

        # fan and intersect, at every binding the pipeline calls through.
        def cones_after(_, result, exc, *args, **kwargs):
            if result is not None:
                count["fan.bergman_weight.cones"] += len(result.weights)

        def perm_before(n, k):
            return (n, k) in fan._perm_cache

        def perm_after(hit, result, exc, n, k):
            count["fan.permutohedral_weight.cache_hits"] += hit
            if result is not None and not hit:
                count["fan.permutohedral_weight.cones"] += len(result.weights)

        def balance_after(_, result, exc, weight):
            if weight.codim < weight.n:
                count["fan.check_balancing.facets"] += _facet_count(weight)
            if result is not None:
                count["fan.check_balancing.violations"] += len(result)

        def cup_after(_, result, exc, divisor, weight):
            count["intersect.divisor_cup.facets"] += _facet_count(weight)

        def pair_after(_, result, exc, n, sigma, tau, v):
            self._last_pair = (sigma, tau)
            count["intersect.pairs.hit"] += result is not None

        def sweep_after(_, result, exc, w1, w2, v):
            count["intersect.pairing_terms.sweeps"] += 1
            if exc is None:
                count["intersect.pairing_terms.certified"] += 1
                count["intersect.pairs.considered"] += len(w1.weights) * len(w2.weights)
            elif self._last_pair is not None:
                # Pairs before and including the one that tied.
                sigma, tau = self._last_pair
                i = list(w1.weights).index(sigma)
                j = list(w2.weights).index(tau)
                count["intersect.pairs.considered"] += i * len(w2.weights) + j + 1
            self._last_pair = None

        for owner in (validation, intersect):
            w(owner, "bergman_weight", "fan.bergman_weight", after=cones_after)
        for owner in (fan, intersect):
            w(owner, "permutohedral_weight", "fan.permutohedral_weight",
              before=perm_before, after=perm_after)
        w(validation, "check_balancing", "fan.check_balancing", after=balance_after)
        w(validation, "divisor_cup", "intersect.divisor_cup", after=cup_after)
        w(validation, "displacement_weights", "intersect.displacement_weights")
        w(validation, "pairing_terms", "intersect.pairing_terms", after=sweep_after)
        w(intersect, "cone_displacement_intersect", "intersect.cone_displacement_intersect",
          hot=True, after=pair_after)
        for fn in ("char_poly", "reduced_char_poly", "count_descending_flags"):
            w(validation, fn, f"charpoly.{fn}")

        # harness, schema, cli and corpus.build.
        w(validation, "run_check", "validation.run_check")
        w(cli, "run_check", "validation.run_check")
        w(schema, "load_matroid", "schema.load_matroid")
        w(cli, "load_matroid_file", "schema.load_matroid_file")
        w(cli, "dump_json", "schema.dump_json")
        w(corpus, "build", "corpus.build")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output --------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
            "bookkeeping_ns": self.bookkeeping_ns,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for span_id, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, op = span
                fh.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "op": op}) + "\n")


def _matroid_classes() -> list[type]:
    """Matroid and every subclass defined in matfan.matroid, base first."""
    return [matroid.Matroid] + [
        cls for cls in vars(matroid).values()
        if isinstance(cls, type) and issubclass(cls, matroid.Matroid) and cls is not matroid.Matroid
    ]


def installed() -> list[str]:
    """Dotted names of the matfan attributes that are tracer wrappers now."""
    found = []
    for owner in (charpoly, cli, corpus, fan, intersect, linalg, schema, validation,
                  *_matroid_classes()):
        prefix = (f"{owner.__module__}.{owner.__qualname__}" if isinstance(owner, type)
                  else owner.__name__)
        for attr, value in vars(owner).items():
            if getattr(value, _MARK, False):
                found.append(f"{prefix}.{attr}")
    return sorted(found)
