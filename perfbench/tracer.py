"""Spans around calls into the program's modules, recorded from outside.

`Tracer.install` replaces module attributes (and a few class attributes)
of the program with wrappers; `uninstall` puts the originals back.  Every
binding of a wrapped function in any program module is replaced, so a
call made from inside the program (`descent.gamma_combine` calling
`nat_add`) is traced as well as a call from the benchmark.  Nothing in
the program's source is changed.

Self time is a span's duration minus the time its child spans cover.  It
is summed per layer as spans close, so totals are exact however many
spans there are; the raw spans (id, parent, item, layer, start, end) are
kept in memory up to SPAN_CAP and written out at the end.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

#: Raw spans kept per run; later spans still count toward the totals.
SPAN_CAP = 100_000

#: layer name -> (module key, attribute names).  A dotted attribute is
#: `Class.method`.  Module keys are those of run.MODULES.
LAYERS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "ordinal.compare": ("ordinal", ("compare",)),
    "ordinal.eq_hash": ("ordinal", ("Ordinal.__eq__", "Ordinal.__ne__", "Ordinal.__hash__")),
    "ordinal.nat_add": ("ordinal", ("nat_add",)),
    "ordinal.nat_mul": ("ordinal", ("nat_mul_k", "nat_mul_omega")),
    "ordinal.codec": ("ordinal", ("encode", "decode")),
    "ordinal.text": ("ordinal", ("parse_ordinal", "format_ordinal")),
    "descent.parse_event_log": ("descent", ("parse_event_log",)),
    "descent.gamma_combine": ("descent", ("gamma_combine",)),
    "descent.validate_descent": ("descent", ("validate_descent",)),
    "descent.format_descent_trace": ("descent", ("format_descent_trace",)),
    "enumeration.run_to_finiteness": ("enumeration", ("run_to_finiteness",)),
    "enumeration.step": ("enumeration", ("step",)),
    "enumeration.zeta_decrease_check": ("enumeration", ("zeta_decrease_check",)),
    "enumeration.zeta_pair_measure": ("enumeration", ("zeta_pair_measure",)),
    "ramsey.solvers.rt22_solve": ("solvers", ("rt22_solve",)),
    "ramsey.solvers.coh_solve": ("solvers", ("coh_solve",)),
    "ramsey.solvers.em_solve": ("solvers", ("em_solve", "em_solve_masks")),
    "ramsey.solvers.ads_solve": ("solvers", ("ads_solve",)),
    "ramsey.solvers.verify_trace": ("solvers", ("verify_trace",)),
    "ramsey.checkers": ("checkers", (
        "is_homogeneous", "is_transitive", "tournament_from_coloring",
        "coloring_from_tournament", "coloring_is_transitive",
        "order_from_transitive_coloring")),
    "ramsey.instances": ("instances", (
        "pair_index", "parse_coloring", "format_coloring", "parse_tournament",
        "format_tournament", "parse_order", "format_order",
        "PairColoring.__post_init__", "PairColoring.color", "PairColoring.restrict",
        "Tournament.__post_init__", "Tournament.from_bits", "Tournament.to_bits",
        "LinearOrderInstance.__post_init__", "LinearOrderInstance.less",
        "SetFamily.__post_init__", "SetFamily.masks")),
    "ramsey.oracles": ("oracles", (
        "brute_max_homogeneous", "brute_max_transitive",
        "has_homogeneous_of_size", "has_transitive_of_size")),
    "sweep": ("sweep", ("sweep",)),
    "report.emit": ("report", ("emit",)),
    "generate": ("generate", (
        "make_coloring", "make_tournament", "make_order", "make_family", "generate")),
}


class Tracer:
    def __init__(self):
        self.names: List[str] = list(LAYERS)
        self.self_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.spans: List[Tuple[int, int, int, int, float, float]] = []
        self.dropped = 0
        self.item = 0
        self._next_id = 1
        self._stack: List[List] = []      # [span id, child seconds]
        self._patches: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)

    def totals(self) -> Dict[str, Tuple[float, int]]:
        return {n: (s, c) for n, s, c in zip(self.names, self.self_s, self.calls)}

    def _wrap(self, layer: int, fn: Callable) -> Callable:
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id = span + 1
            parent = stack[-1][0] if stack else 0
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_s[layer] += duration - frame[1]
                self.calls[layer] += 1
                if stack:
                    stack[-1][1] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((span, parent, self.item, layer, start, end))
                else:
                    self.dropped += 1

        traced.__wrapped__ = fn
        return traced

    def install(self, ep) -> None:
        """Wrap every layer's functions wherever a program module binds them."""
        originals: Dict[int, Callable] = {}
        for layer, (module_key, attrs) in enumerate(LAYERS.values()):
            module = getattr(ep, module_key)
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(layer, raw.__func__))
                    else:
                        new = self._wrap(layer, raw)
                    self._patches.append((cls, meth, raw))
                    setattr(cls, meth, new)
                else:
                    fn = getattr(module, attr)
                    originals[id(fn)] = self._wrap(layer, fn)
        for module in ep.program_modules():
            for name, value in list(vars(module).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None and wrapped.__wrapped__ is value:
                    self._patches.append((module, name, value))
                    setattr(module, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches.clear()

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\titem\tlayer\tstart_s\tend_s\n")
            for span, parent, item, layer, start, end in self.spans:
                fh.write(f"{span}\t{parent}\t{item}\t{self.names[layer]}\t{start:.9f}\t{end:.9f}\n")
            if self.dropped:
                fh.write(f"# dropped {self.dropped} spans beyond the cap of {SPAN_CAP}\n")
