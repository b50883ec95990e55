"""Per-layer tracing of conesec from outside the library.

A `Recorder` replaces the library's public functions, and the scipy
primitives conesec calls (qhull hulls, qhull halfspace intersections, HiGHS
LPs), with wrappers that record spans (name, start, end, parent) in memory
and a few counters. A function is replaced in every conesec module namespace
that bound it by name, so `sections.moments` is traced as well as
`volume.moments`. `uninstall` restores every original.

`layer_metrics` turns the spans and counters into the per-layer metrics
listed in PER_LAYER: `.calls` counts, `.s` inclusive seconds (outermost span
of a name only) and `.self_s` seconds minus the time of child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

import scipy.optimize
import scipy.spatial
from scipy.spatial import QhullError

from conesec import ball_bodies, geometry, sections, verify, volume

# (name, unit) of every per-layer metric, in report order. Every traced run
# emits all of them, 0 where a workload does not reach the layer.
PER_LAYER = [
    ("geometry.qhull_hull.calls", "count"),
    ("geometry.qhull_hull.s", "s"),
    ("geometry.qhull_halfspace.calls", "count"),
    ("geometry.qhull_halfspace.s", "s"),
    ("geometry.qhull_retries", "count"),
    ("geometry.qhull_joggle", "count"),
    ("geometry.lp.calls", "count"),
    ("geometry.lp.s", "s"),
    ("geometry.lp.failed", "count"),
    ("geometry.to_hrep.calls", "count"),
    ("geometry.to_hrep.self_s", "s"),
    ("geometry.extreme_points.calls", "count"),
    ("geometry.extreme_points.self_s", "s"),
    ("geometry.project.calls", "count"),
    ("volume.triangulate.calls", "count"),
    ("volume.triangulate.self_s", "s"),
    ("volume.moments.calls", "count"),
    ("volume.moments.self_s", "s"),
    ("volume.moment_p.calls", "count"),
    ("volume.moment_p.self_s", "s"),
    ("sections.section.calls", "count"),
    ("sections.section.self_s", "s"),
    ("sections.cone_polyhedral.calls", "count"),
    ("sections.cone_polyhedral.self_s", "s"),
    ("sections.cone_radial.calls", "count"),
    ("sections.cone_radial.self_s", "s"),
    ("sections.ray_moment.m1.calls", "count"),
    ("sections.ray_moment.m1.s", "s"),
    ("sections.ray_moment.m2.calls", "count"),
    ("sections.ray_moment.m2.s", "s"),
    ("sections.ray_moment.m3.calls", "count"),
    ("sections.ray_moment.m3.s", "s"),
    ("sections.ray_integrals", "count"),
    ("sections.ray_nodes", "count"),
    ("sections.ray_budget_exhausted", "count"),
    ("ball_bodies.I_p.m1.calls", "count"),
    ("ball_bodies.I_p.m1.s", "s"),
    ("ball_bodies.I_p.m2.calls", "count"),
    ("ball_bodies.I_p.m2.s", "s"),
    ("ball_bodies.I_p.indicator.calls", "count"),
    ("ball_bodies.I_p.indicator.s", "s"),
    ("ball_bodies.ray_integrals", "count"),
    ("ball_bodies.ray_nodes", "count"),
    ("ball_bodies.ray_budget_exhausted", "count"),
    ("ball_bodies.polytope_approx.calls", "count"),
    ("ball_bodies.polytope_approx.s", "s"),
    ("ball_bodies.function_moment.calls", "count"),
    ("ball_bodies.function_moment.s", "s"),
    ("verify.halfspace_volume.calls", "count"),
    ("verify.halfspace_volume.self_s", "s"),
    ("verify.cone_volume.calls", "count"),
    ("verify.cone_volume.self_s", "s"),
    ("verify.check.gruenbaum.calls", "count"),
    ("verify.check.gruenbaum.s", "s"),
    ("verify.check.lemma5.calls", "count"),
    ("verify.check.lemma5.s", "s"),
    ("verify.check.lemma7.calls", "count"),
    ("verify.check.lemma7.s", "s"),
    ("verify.check.prop8.calls", "count"),
    ("verify.check.prop8.s", "s"),
    ("verify.check.part1.calls", "count"),
    ("verify.check.part1.s", "s"),
    ("verify.check.part2.calls", "count"),
    ("verify.check.part2.s", "s"),
    ("verify.bodies", "count"),
    ("verify.qhull_per_body", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]

# (defining namespace, attribute, span name) of plain span wrappers
_SPANS = [
    (geometry, "to_hrep", "geometry.to_hrep"),
    (geometry, "extreme_points", "geometry.extreme_points"),
    (geometry, "project", "geometry.project"),
    (volume, "triangulate", "volume.triangulate"),
    (volume, "moments", "volume.moments"),
    (volume, "moment_p", "volume.moment_p"),
    (sections, "section", "sections.section"),
    (sections, "cone_section_volume_polyhedral", "sections.cone_polyhedral"),
    (sections, "cone_section_volume_radial", "sections.cone_radial"),
    (ball_bodies, "function_moment", "ball_bodies.function_moment"),
    (verify, "halfspace_volume", "verify.halfspace_volume"),
    (verify, "cone_volume", "verify.cone_volume"),
    (verify, "check_gruenbaum", "verify.check.gruenbaum"),
    (verify, "check_lemma5", "verify.check.lemma5"),
    (verify, "check_lemma7", "verify.check.lemma7"),
    (verify, "check_prop8", "verify.check.prop8"),
    (verify, "check_main_theorem_part1", "verify.check.part1"),
    (verify, "check_main_theorem_part2", "verify.check.part2"),
    (verify, "checks_for_body", "verify.checks_for_body"),
]

_QHULL = {"geometry.qhull_hull", "geometry.qhull_halfspace"}


def _ray_budget(spec) -> int:
    """Nodes `_composite_gl` evaluates when every panel doubling runs."""
    panels, total = 1, 0
    while panels <= spec.ray_max_panels:
        total += panels
        panels *= 2
    return total * spec.ray_panel_nodes


class Recorder:
    """In-memory spans and counters; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _leave(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name):
        """Wrapper recording one span; `name` is a string or f(args) -> string."""
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = enter(name if isinstance(name, str) else name(args))
            try:
                return fn(*args, **kwargs)
            finally:
                leave(idx)

        return wrapper

    def _qhull(self, cls, name):
        enter, leave, counts = self._enter, self._leave, self.counts

        def wrapper(*args, **kwargs):
            idx = enter(name)
            try:
                result = cls(*args, **kwargs)
            except QhullError:
                counts["geometry.qhull_retries"] += 1
                raise
            finally:
                leave(idx)
            if "QJ" in (kwargs.get("qhull_options") or ""):
                counts["geometry.qhull_joggle"] += 1
            return result

        return wrapper

    def _linprog(self, fn):
        enter, leave, counts = self._enter, self._leave, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = enter("geometry.lp")
            try:
                res = fn(*args, **kwargs)
            finally:
                leave(idx)
            if not res.success:
                counts["geometry.lp.failed"] += 1
            return res

        return wrapper

    def _ray_quadrature(self, fn, layer):
        """Counts nodes of one namespace's `_composite_gl` (no span of its own)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(integrand, a, b, spec):
            nodes = 0

            def counted(ts):
                nonlocal nodes
                nodes += len(ts)
                return integrand(ts)

            value = fn(counted, a, b, spec)
            counts[f"{layer}.ray_integrals"] += 1
            counts[f"{layer}.ray_nodes"] += nodes
            if nodes >= _ray_budget(spec):
                counts[f"{layer}.ray_budget_exhausted"] += 1
            return value

        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        """Bind `wrapper` wherever a conesec module namespace binds `original`."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "conesec" or modname.startswith("conesec.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("recorder already installed")
        for owner, attr, name in _SPANS:
            fn = getattr(owner, attr)
            self._replace(fn, self._span(fn, name))
        self._replace(scipy.spatial.ConvexHull,
                      self._qhull(scipy.spatial.ConvexHull, "geometry.qhull_hull"))
        self._replace(scipy.spatial.HalfspaceIntersection,
                      self._qhull(scipy.spatial.HalfspaceIntersection, "geometry.qhull_halfspace"))
        self._replace(scipy.optimize.linprog, self._linprog(scipy.optimize.linprog))
        self._replace(sections.ray_moment,
                      self._span(sections.ray_moment, lambda a: f"sections.ray_moment.m{a[0].m}"))
        self._replace(ball_bodies.I_p, self._span(
            ball_bodies.I_p,
            lambda a: ("ball_bodies.I_p.indicator" if a[0].concavity_index is None
                       else f"ball_bodies.I_p.m{a[0].concavity_index}")))
        # each module's own binding of the ray quadrature feeds its own counters
        for mod, layer in ((sections, "sections"), (ball_bodies, "ball_bodies")):
            fn = mod._composite_gl
            self._patched.append((mod, "_composite_gl", fn))
            mod._composite_gl = self._ray_quadrature(fn, layer)
        cls = ball_bodies.StarBodyOracle
        fn = cls.polytope_approx
        self._patched.append((cls, "polytope_approx", fn))
        cls.polytope_approx = self._span(fn, "ball_bodies.polytope_approx")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- aggregation -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric except the trace.* pair, from spans and counters."""
        spans = self.spans
        n = len(spans)
        child_s = [0.0] * n
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: Counter = Counter()
        incl: Counter = Counter()
        self_s: Counter = Counter()
        in_body = [False] * n
        qhull_in_body = 0
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            self_s[name] += dur - child_s[i]
            in_body[i] = name == "verify.checks_for_body" or (parent >= 0 and in_body[parent])
            if name in _QHULL and in_body[i]:
                qhull_in_body += 1
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:  # outermost span of this name
                incl[name] += dur
        bodies = calls["verify.checks_for_body"]
        out: dict[str, float] = {}
        for metric, _unit in PER_LAYER:
            if metric.startswith("trace."):
                continue
            base, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls[base]
            elif field == "s":
                out[metric] = incl[base]
            elif field == "self_s":
                out[metric] = self_s[base]
            elif metric == "verify.bodies":
                out[metric] = bodies
            elif metric == "verify.qhull_per_body":
                out[metric] = qhull_in_body / bodies if bodies else 0.0
            else:
                out[metric] = self.counts[metric]
        return out

    def dump(self, path, origin: float) -> None:
        """Write the spans as JSON lines [name, start_s, end_s, parent] from `origin`."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start - origin, 9), round(end - origin, 9), parent]))
                fh.write("\n")
