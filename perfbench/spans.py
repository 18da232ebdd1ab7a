"""In-memory span tracer for the benchmark's traced run.

The tracer wraps functions of the ``atiyah4`` modules at the names their
callers look up (``certify.orbit_sum`` as well as ``symmetry.orbit_sum``,
the checker table in ``certify``, methods on ``Poly``), so nothing in the
package changes.  Every wrapped call adds to per-key totals: calls, total
time, and self time (total minus the time of wrapped calls made inside
it).  Coarse calls are also kept as spans (id, parent, name, scope, start,
end) and written out once, when the traced pass ends.

A ``scope`` string set by the benchmark before each command tags every
call, so per-program (``lp``) and per-campaign (``atiyah``) figures stay
apart.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

#: Keys called so often that keeping one span per call would dominate
#: memory; they are aggregated only.
HOT = frozenset(
    {
        "polyring.mul",
        "polyring.add",
        "polyring.sub",
        "polyring.scale",
        "polyring.evaluate",
        "symmetry.orbit_sum",
        "catalog.t_alpha_expand",
        "atiyah.sample_config",
        "atiyah.atiyah_det",
        "atiyah.atiyah_matrix",
    }
)

LAYERS = ("polyring", "symmetry", "catalog", "certify", "lp", "atiyah", "cli")

Counter = Callable[["Tracer", tuple, object], None]


class Tracer:
    def __init__(self) -> None:
        self.scope = ""
        # (scope, key) -> [calls, total_s, self_s]
        self.totals: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        # (scope, name) -> count
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.spans: list[tuple] = []
        self._child = [0.0]  # child-time accumulator per open call
        self._span_ids = [None]  # id of the innermost open recorded span
        self._undo: list[Callable[[], None]] = []
        self.started = 0.0
        self.wall_s = 0.0

    # -- patching ------------------------------------------------------------

    def wrap(self, key: str, fn: Callable, counter: Counter | None = None) -> Callable:
        totals, child, span_ids, spans = self.totals, self._child, self._span_ids, self.spans
        hot = key in HOT
        clock = time.perf_counter

        def traced(*args, **kwargs):
            scope = self.scope
            if not hot:
                span_id = len(spans)
                spans.append(None)
                parent = span_ids[-1]
                span_ids.append(span_id)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                inner = child.pop()
                duration = end - start
                child[-1] += duration
                record = totals[scope, key]
                record[0] += 1
                record[1] += duration
                record[2] += duration - inner
                if not hot:
                    span_ids.pop()
                    spans[span_id] = (span_id, parent, key, scope, start, end)
            if counter is not None:
                counter(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, key: str, counter: Counter | None = None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`uninstall`."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(key, original, counter))
        self._undo.append(lambda: setattr(owner, attr, original))

    def patch_item(self, table: dict, item: str, key: str,
                   counter: Counter | None = None) -> None:
        """Trace the function in a ``(label, function)`` table entry."""
        original = table[item]
        label, fn = original
        table[item] = (label, self.wrap(key, fn, counter))
        self._undo.append(lambda: table.__setitem__(item, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[self.scope, name] += amount

    # -- the traced pass -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self.started
        self.uninstall()

    # -- queries -------------------------------------------------------------

    def _sum(self, table: dict, name: str, scope: str | None, field=None):
        return sum(
            value if field is None else value[field]
            for (s, n), value in table.items()
            if n == name and scope in (None, s)
        )

    def calls(self, key: str, scope: str | None = None) -> int:
        return self._sum(self.totals, key, scope, 0)

    def total_s(self, key: str, scope: str | None = None) -> float:
        return self._sum(self.totals, key, scope, 1)

    def self_s(self, key: str, scope: str | None = None) -> float:
        return self._sum(self.totals, key, scope, 2)

    def counted(self, name: str, scope: str | None = None) -> int:
        return self._sum(self.counts, name, scope)

    def layer_self_s(self) -> dict[str, float]:
        """Self time per module; time no wrapped call covers goes to ``bench``."""
        layers = {layer: 0.0 for layer in LAYERS}
        for (_, key), record in self.totals.items():
            layers[key.split(".", 1)[0]] += record[2]
        layers["bench"] = self.wall_s - self._child[0]
        return layers

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "parent", "name", "scope", "start", "end")
        rows = [dict(zip(fields, span)) for span in self.spans if span is not None]
        path.write_text(json.dumps({"origin": self.started, "spans": rows}))


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer at their lookup sites."""
    from atiyah4 import atiyah, catalog, certify, cli, lp, polyring, symmetry

    def mul_pairs(t: Tracer, args, result) -> None:
        t.count("polyring.mul.term_pairs", len(args[0].terms) * len(args[1].terms))

    def orbit_terms(t: Tracer, args, result) -> None:
        t.count("symmetry.orbit_sum.terms_in", len(args[0].terms))

    def residual_terms(t: Tracer, args, result) -> None:
        t.count("certify.residual_terms", len(result.residual.terms))

    def program_shape(t: Tracer, args, result) -> None:
        t.count("lp.rows", len(result.matrix))
        t.count("lp.columns", len(result.column_names))

    def pivots(t: Tracer, args, result) -> None:
        t.count("lp.pivots", result.pivots)

    def violations(t: Tracer, args, result) -> None:
        t.count("atiyah.violations", result.identity_violations + result.margin_violations)

    poly = polyring.Poly
    tracer.patch(poly, "_mul_poly", "polyring.mul", mul_pairs)
    tracer.patch(poly, "__add__", "polyring.add")
    tracer.patch(poly, "__sub__", "polyring.sub")
    tracer.patch(poly, "scale", "polyring.scale")
    tracer.patch(poly, "evaluate", "polyring.evaluate")

    for module in (symmetry, catalog, certify):
        tracer.patch(module, "orbit_sum", "symmetry.orbit_sum", orbit_terms)
    for module in (catalog, certify):
        tracer.patch(module, "t_alpha_expand", "catalog.t_alpha_expand")
    for module in (catalog, lp):
        tracer.patch(module, "enumerate_T", "catalog.enumerate_T")
    tracer.patch(catalog, "named_polynomials", "catalog.named_polynomials")

    tracer.patch(certify, "run_certificate_check", "certify.run_certificate_check")
    tracer.patch(certify, "load_certificate", "certify.load_certificate")
    tracer.patch(certify, "combination_orbit_sum", "certify.combination_orbit_sum")
    tracer.patch(certify, "check_eq52", "certify.check_eq52", residual_terms)
    # run_certificate_check looks its checkers up in this table, not by name.
    for name in ("sec3", "eq42", "eq53"):
        key = f"certify.check_{name}"
        tracer.patch_item(certify.CHECKS_WITH_CERTIFICATES, name, key, residual_terms)

    tracer.patch(lp, "standard_basis", "lp.standard_basis")
    tracer.patch(lp, "build_program", "lp.build_program", program_shape)
    tracer.patch(lp, "solve", "lp.solve", pivots)
    tracer.patch(lp, "_reconstructs", "lp.reconstruct")
    tracer.patch(lp, "combination_polynomial", "lp.reconstruct")
    tracer.patch(lp, "upper_bound_check", "lp.upper_bound_check")

    tracer.patch(atiyah, "run_samples", "atiyah.run_samples", violations)
    tracer.patch(atiyah, "sample_config", "atiyah.sample_config")
    tracer.patch(atiyah, "atiyah_det", "atiyah.atiyah_det")
    tracer.patch(atiyah, "atiyah_matrix", "atiyah.atiyah_matrix")

    tracer.patch(cli, "main", "cli.main")
