"""Span tracer that wraps the public functions of the nilclose modules from
outside the package.

Every traced function is replaced by a wrapper that records one span per
call.  A span's self time is its duration minus the time covered by the
traced spans it encloses, so nested calls (``falsify`` -> ``verify_witness``
-> ``jordan_partition`` -> ``rank``) are not counted twice.  Spans are
aggregated per name as they close: call count and summed self time.

The modules import names from each other directly (``jordan`` does
``from .matrices import rank``), so rebinding a function in its defining
module alone would miss most calls.  ``install`` therefore rebinds the
wrapper under every name that holds the original in any ``nilclose.*``
module namespace, and ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (span name, defining module, attribute); "ExactMatrix.__mul__" is patched
# on the class, which every module shares.
TRACED = (
    ("field.roots_of_unity", "nilclose.field", "roots_of_unity"),
    ("field.geometric_sum", "nilclose.field", "geometric_sum"),
    ("field.galois", "nilclose.field", "galois"),
    ("matrices.mul", "nilclose.matrices", "ExactMatrix.__mul__"),
    ("matrices.rank", "nilclose.matrices", "rank"),
    ("matrices.poly_eval", "nilclose.matrices", "poly_eval"),
    ("matrices.centralizer_basis", "nilclose.matrices", "centralizer_basis"),
    ("matrices.minimal_polynomial", "nilclose.matrices", "minimal_polynomial"),
    ("jordan.jordan_partition", "nilclose.jordan", "jordan_partition"),
    ("jordan.jordan_chevalley", "nilclose.jordan", "jordan_chevalley"),
    ("jordan.squarefree_part", "nilclose.jordan", "squarefree_part"),
    ("criterion.check_criterion", "nilclose.criterion", "check_criterion"),
    ("criterion.member_mq", "nilclose.criterion", "member_mq"),
    ("witness.falsify", "nilclose.witness", "falsify"),
    ("witness.verify_witness", "nilclose.witness", "verify_witness"),
    ("witness.witness_neighbor", "nilclose.witness", "witness_neighbor"),
    ("oracle.exhaustive_check", "nilclose.oracle", "exhaustive_check"),
    ("cli.main", "nilclose.cli", "main"),
)

SPAN_NAMES = tuple(name for name, _, _ in TRACED)

COUNT_NAMES = (
    "field.max_order_used",
    "matrices.mul.scalar_mults",
    "witness.construction.power",
    "witness.construction.neighbor",
    "witness.construction.gap",
    "oracle.matrices_enumerated",
    "oracle.pairs_tested",
    "oracle.combinations_tested",
)


def _count_order(tracer, spec):
    if spec.is_finite:
        tracer.counts["field.max_order_used"] = max(
            tracer.counts["field.max_order_used"], spec.order)


# Counters read from a call's arguments and result after its span closes.
_HOOKS = {
    "field.roots_of_unity": lambda t, args, out: _count_order(t, args[0]),
    "field.galois": lambda t, args, out: _count_order(t, out),
    "matrices.mul": lambda t, args, out: t.counts.update(
        {"matrices.mul.scalar_mults": args[0].n ** 3}),
    "witness.falsify": lambda t, args, out: out is not None and t.counts.update(
        {f"witness.construction.{out.construction}": 1}),
    "oracle.exhaustive_check": lambda t, args, out: t.counts.update({
        "oracle.matrices_enumerated": out.matrices_enumerated,
        "oracle.pairs_tested": out.pairs_tested,
        "oracle.combinations_tested": out.combinations_tested,
    }),
}


class Tracer:
    """Aggregated spans and counters of one traced pass."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter({name: 0 for name in COUNT_NAMES})
        self._open = []     # time covered by child spans, per open span
        self._undo = []

    def _wrap(self, name, fn):
        clock = time.perf_counter
        open_spans, calls, self_s = self._open, self.calls, self.self_s
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - open_spans.pop()
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += elapsed
            if hook is not None:
                hook(self, args, out)
            return out

        return span

    def install(self):
        """Rebind every traced function in every loaded nilclose module."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "nilclose"
                                         or key.startswith("nilclose."))]
        for name, module_name, attr in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()
