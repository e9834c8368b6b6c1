"""Outside-in layer tracing: timing wrappers bound over cfpopt's public calls.

Nothing in the package changes.  ``Tracer.install`` rebinds each traced
function at the names its callers look it up by, and ``uninstall`` restores
the originals.  Every wrapped call is a span on one stack; a layer's self
time is the time its spans spend outside their child spans.

Binding points (what the callers resolve at call time):

* ``cfpopt._kernels.cspm_sweep`` / ``art3_pass``: the sweepers call them
  through the module.
* ``value`` / ``subgrad`` on the model classes.  An oracle that calls another
  oracle (a ``CustomFunction`` around a p-norm) counts once, as the outer call.
* ``cfpopt.schemes.cfp_with_level``: the schemes import it by name.
* ``make_sweeper`` in ``cfpopt.feasibility`` and in ``cfpopt.superiorize``.
* ``cfpopt.superiorize.superiorized_solve`` (imported at call time by
  ``cfp_with_level``) and ``nonascending_direction``.
* the scheme functions as ``cfpopt.harness`` imported them.
* ``cfpopt.qps.parse_qps_document`` and ``QpsDocument.to_problem``.
* ``cfpopt.harness.emit_report``.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import numpy as np

from cfpopt import _kernels, feasibility, harness, model, qps, schemes, superiorize

MODEL_CLASSES = (model.QuadraticFunction, model.AffineConstraint, model.CustomFunction,
                 model.UnderdoseFunction, model.PNormFunction)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [layer, child seconds] per open span
        self.self_s: dict[str, list[float]] = defaultdict(lambda: [0.0])
        self.calls: dict[str, list] = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.count: Counter = Counter()
        self.setups = 0  # problem set-ups run while installed, counted by the caller
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, owner, attr: str, layer: str, name: str, after=None, merge_nested=False):
        original = owner.__dict__[attr]
        stack = self.stack
        own = self.self_s[layer]
        calls = self.calls[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if merge_nested and stack and stack[-1][0] == layer:
                return original(*args, **kwargs)
            span = [layer, 0.0]
            stack.append(span)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                own[0] += dt - span[1]
                calls[0] += 1
                calls[1] += dt
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._saved.append((owner, attr, original))

    # -- counters taken from arguments and results -------------------------

    def _after_cspm(self, args, result):
        A = args[0]
        rows, moves = A.shape[0], int(result[1])
        self.count["kernels.cspm_row_visits"] += rows
        self.count["kernels.cspm_moves"] += moves
        # bytes the row loop touches: A_i and x for each dot product, then
        # A_i read and x read and written for each move
        self.count["kernels.cspm_bytes"] += 8 * A.shape[1] * (2 * rows + 3 * moves)

    def _after_art3(self, args, result):
        self.count["kernels.art3_row_visits"] += args[5].shape[0]
        self.count["kernels.art3_kept"] += result.shape[0]

    def _after_cfp(self, args, outcome):
        if np.isfinite(args[1]):
            self.count["schemes.level_tests"] += 1
        self.count["feasibility.sweeps"] += outcome.sweeps
        self.count["feasibility.projections"] += outcome.projections
        if outcome.found:
            self.count["feasibility.found"] += 1
        elif outcome.infeasibility_certified:
            self.count["feasibility.certified_empty"] += 1
        else:
            self.count["feasibility.timeouts"] += 1
            self.count["feasibility.timeout_projections"] += outcome.projections

    def _after_parse(self, args, _doc):
        self.count["qps.bytes"] += len(args[0])

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        self._wrap(_kernels, "cspm_sweep", "kernels", "kernels.cspm", self._after_cspm)
        self._wrap(_kernels, "art3_pass", "kernels", "kernels.art3", self._after_art3)
        for cls in MODEL_CLASSES:
            for attr in ("value", "subgrad"):
                if attr in cls.__dict__:
                    self._wrap(cls, attr, "model", f"model.{attr}", merge_nested=True)
        self._wrap(schemes, "cfp_with_level", "feasibility", "feasibility.solve", self._after_cfp)
        self._wrap(feasibility, "make_sweeper", "feasibility.setup", "feasibility.setup")
        self._wrap(superiorize, "make_sweeper", "feasibility.setup", "feasibility.setup")
        self._wrap(superiorize, "superiorized_solve", "superiorize", "superiorize.solve")
        self._wrap(superiorize, "nonascending_direction", "superiorize", "superiorize.direction")
        for fn in ("level_set_solve", "accelerated_level_set_solve", "bisection_solve"):
            self._wrap(harness, fn, "schemes", "schemes.run")
        self._wrap(qps, "parse_qps_document", "qps.parse", "qps.parse", self._after_parse)
        self._wrap(qps.QpsDocument, "to_problem", "qps.to_problem", "qps.to_problem")
        self._wrap(harness, "emit_report", "harness.emit_report", "harness.emit_report")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- report --------------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per matrix pass (the qps ones per set-up)."""
        c = self.count

        def n(name):
            return self.calls[name][0]

        def t(name):
            return self.calls[name][1]

        def s(layer):
            return self.self_s[layer][0]

        def per_pass(v):
            return v / passes

        def ratio(a, b):
            return a / b if b else 0.0

        setups = max(self.setups, 1)

        cspm_rows = c["kernels.cspm_row_visits"]
        art3_rows = c["kernels.art3_row_visits"]
        return {
            "kernels.cspm_calls": (per_pass(n("kernels.cspm")), "count"),
            "kernels.cspm_rows": (per_pass(cspm_rows), "count"),
            "kernels.cspm_s": (per_pass(t("kernels.cspm")), "s"),
            "kernels.cspm_ns_per_row": (ratio(t("kernels.cspm") * 1e9, cspm_rows), "ns"),
            "kernels.cspm_move_ratio": (ratio(c["kernels.cspm_moves"], cspm_rows), "ratio"),
            "kernels.cspm_bytes_computed": (per_pass(c["kernels.cspm_bytes"]), "bytes"),
            "kernels.art3_calls": (per_pass(n("kernels.art3")), "count"),
            "kernels.art3_rows": (per_pass(art3_rows), "count"),
            "kernels.art3_s": (per_pass(t("kernels.art3")), "s"),
            "kernels.art3_ns_per_row": (ratio(t("kernels.art3") * 1e9, art3_rows), "ns"),
            "kernels.art3_kept_ratio": (ratio(c["kernels.art3_kept"], art3_rows), "ratio"),
            "model.value_calls": (per_pass(n("model.value")), "count"),
            "model.value_s": (per_pass(t("model.value")), "s"),
            "model.subgrad_calls": (per_pass(n("model.subgrad")), "count"),
            "model.subgrad_s": (per_pass(t("model.subgrad")), "s"),
            "feasibility.solves": (per_pass(n("feasibility.solve")), "count"),
            "feasibility.found": (per_pass(c["feasibility.found"]), "count"),
            "feasibility.timeouts": (per_pass(c["feasibility.timeouts"]), "count"),
            "feasibility.certified_empty": (per_pass(c["feasibility.certified_empty"]), "count"),
            "feasibility.sweeps": (per_pass(c["feasibility.sweeps"]), "count"),
            "feasibility.timeout_projection_share": (
                ratio(c["feasibility.timeout_projections"], c["feasibility.projections"]), "ratio"),
            "feasibility.setup_s": (per_pass(t("feasibility.setup")), "s"),
            "feasibility.self_s": (per_pass(s("feasibility")), "s"),
            "superiorize.solves": (per_pass(n("superiorize.solve")), "count"),
            "superiorize.directions": (per_pass(n("superiorize.direction")), "count"),
            "superiorize.self_s": (per_pass(s("superiorize")), "s"),
            "schemes.runs": (per_pass(n("schemes.run")), "count"),
            "schemes.level_tests": (per_pass(c["schemes.level_tests"]), "count"),
            "schemes.self_s": (per_pass(s("schemes")), "s"),
            "qps.parse_s": (t("qps.parse") / setups, "s"),
            "qps.to_problem_s": (t("qps.to_problem") / setups, "s"),
            "qps.bytes": (c["qps.bytes"] / setups, "bytes"),
            "harness.emit_report_s": (per_pass(t("harness.emit_report")), "s"),
        }
