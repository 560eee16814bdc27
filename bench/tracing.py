"""Per-layer tracing that wraps semicover's public functions from outside.

Spans go around the functions that mark a layer boundary; each records
its name, start, end, parent span and request.  A layer's self time is its
span's duration minus the time covered by its child spans.  The hottest
methods (group multiplication, homomorphism application, cone membership)
get counting wrappers without spans.

A function imported with `from .x import y` is a separate attribute of
every importing module, so each wrapper replaces the original wherever it
is bound across the package, and `uninstall` puts every one back.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# span name -> (module, attribute, class or None)
SPANS = {
    "groups.ball": ("groups", "ball", "GroupModel"),
    "groups.finite_group": ("groups", "__init__", "FiniteGroup"),
    "cones.ball_members": ("cones", "ball_members", None),
    "cones.is_subsemigroup": ("cones", "is_subsemigroup", None),
    "cones.is_cover_pair": ("cones", "is_cover_pair", None),
    "cones.ext_equal": ("cones", "ext_equal", None),
    "covers.reduce_cover": ("covers", "reduce_cover", None),
    "covers.classify_intersection": ("covers", "classify_intersection", None),
    "covers.check_coset_saturation": ("covers", "check_coset_saturation", None),
    "covers.check_inverse_duality": ("covers", "check_inverse_duality", None),
    "covers.minimal_pair_descent": ("covers", "minimal_pair_descent", None),
    "orders.validate_witness": ("orders", "validate_witness", None),
    "orders.pullback_cover": ("orders", "pullback_cover", None),
    "covering.subsemigroup_census": ("covering", "subsemigroup_census", None),
    "covering.two_cover_search": ("covering", "two_cover_search", None),
    "covering.sigma_g": ("covering", "sigma_g", None),
    "covering.all_subgroups": ("covering", "all_subgroups", None),
    "covering.scorza_check": ("covering", "scorza_check", None),
    "snf.smith_normal_form": ("snf", "smith_normal_form", None),
    "presentations.analyze_presentation": ("presentations", "analyze_presentation", None),
    "cli.main": ("cli", "main", None),
}

# counter name -> (module, attribute, classes)
COUNTERS = {
    "groups.mul": ("groups", "mul", ("GroupModel",)),
    "groups.hom_apply": ("groups", "apply", ("Homomorphism",)),
    "cones.member": ("cones", "member", ("FiniteBits", "Pullback", "Union",
                                         "Intersection", "Complement",
                                         "ExplicitSet", "Identity")),
}

# per-layer metrics reported from a traced run: name -> unit
SELF_TIME = ["groups.ball", "groups.finite_group", "cones.ball_members",
             "cones.is_subsemigroup", "cones.is_cover_pair", "cones.ext_equal",
             "covers.reduce_cover", "covers.classify_intersection",
             "covers.check_coset_saturation", "covers.check_inverse_duality",
             "covers.minimal_pair_descent", "orders.validate_witness",
             "orders.pullback_cover", "covering.subsemigroup_census",
             "covering.two_cover_search", "covering.sigma_g",
             "covering.all_subgroups", "covering.scorza_check",
             "snf.smith_normal_form", "presentations.analyze_presentation",
             "cli.main"]
CALLS = ["groups.ball", "cones.ball_members", "cones.is_subsemigroup",
         "cones.is_cover_pair", "covers.reduce_cover", "orders.validate_witness",
         "covering.sigma_g", "covering.all_subgroups", "snf.smith_normal_form"]
LAYER_METRICS = {
    **{f"{n}.s": "s" for n in SELF_TIME},
    **{f"{n}.calls": "count" for n in CALLS},
    "groups.ball.elements": "count",
    "groups.ball.reuse": "ratio",
    "groups.mul.calls": "count",
    "groups.hom_apply.calls": "count",
    "cones.member.calls": "count",
    "cones.is_subsemigroup.value_pure": "ratio",
    "covers.descent_steps": "count",
    "covering.census_per_request": "ratio",
    "covering.census.closed_subsets": "count",
    "covering.two_cover_search.pairs": "count",
    "snf.transform_bits.max": "bits",
    "presentations.surjection_bits.max": "bits",
    "cli.report_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


# spans of the first KEEP_SPANS calls are kept for `write_spans`
KEEP_SPANS = 50_000


def _max_bits(rows) -> int:
    return max((abs(v).bit_length() for row in rows for v in row), default=0)


class Tracer:
    """Holds the spans and counts of one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = defaultdict(int)
        self.requests = 0
        self._stack: list[list] = []   # [span id, child time]
        self._next_id = 0
        self._balls_seen: set = set()
        self._installed: list[tuple] = []
        self._value_profile = None
        self._scale = 1.0

    # -- requests

    def begin_request(self, scale: float) -> None:
        """Start a request; its self times are multiplied by `scale`, the
        runner's reference-loop factor for it."""
        self.requests += 1
        self._balls_seen = set()
        self._scale = scale

    # -- wrappers

    def _span(self, name, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if before is not None:
                t0 = perf_counter()
                before(args)
                if stack:
                    stack[-1][1] += perf_counter() - t0   # hook time is no one's
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                tracer.self_time[name] += (dur - frame[1]) * tracer._scale
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                if len(tracer.spans) < KEEP_SPANS:
                    tracer.spans.append((tracer.requests, span_id, parent, name, start, end))
            if after is not None:
                t0 = perf_counter()
                after(args, result)
                if stack:
                    stack[-1][1] += perf_counter() - t0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks for derived counts

    def _hooks(self):
        def before_ball(args):
            key = (id(args[0]), args[1])
            if key in self._balls_seen:
                self.counts["groups.ball.reuse"] += 1

        def after_ball(args, result):
            key = (id(args[0]), args[1])
            if key not in self._balls_seen:
                self._balls_seen.add(key)
                self.counts["groups.ball.elements"] += len(result)

        def before_subsemigroup(args):
            if self._value_profile(args[1]) is not None:
                self.counts["cones.is_subsemigroup.value_pure"] += 1

        def after_descent(args, result):
            self.counts["covers.descent_steps"] += result.step

        def after_census(args, result):
            self.counts["covering.census.closed_subsets"] += len(result.closed_subsets)

        def after_search(args, result):
            self.counts["covering.two_cover_search.pairs"] += result["pairs_checked"]

        def after_snf(args, result):
            _, left, right = result
            bits = max(_max_bits(left), _max_bits(right))
            self.maxima["snf.transform_bits.max"] = max(self.maxima["snf.transform_bits.max"], bits)

        def after_analyze(args, result):
            if result.z_surjection is not None:
                bits = _max_bits(result.z_surjection.images)
                key = "presentations.surjection_bits.max"
                self.maxima[key] = max(self.maxima[key], bits)

        return {
            "groups.ball": (before_ball, after_ball),
            "cones.is_subsemigroup": (before_subsemigroup, None),
            "covers.minimal_pair_descent": (None, after_descent),
            "covering.subsemigroup_census": (None, after_census),
            "covering.two_cover_search": (None, after_search),
            "snf.smith_normal_form": (None, after_snf),
            "presentations.analyze_presentation": (None, after_analyze),
        }

    # -- installation

    def install(self) -> None:
        pkg = "semicover"
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == pkg or n.startswith(pkg + "."))]
        self._value_profile = sys.modules[f"{pkg}.cones"].value_profile
        hooks = self._hooks()
        for name, (mod, attr, cls) in SPANS.items():
            owner = sys.modules[f"{pkg}.{mod}"]
            before, after = hooks.get(name, (None, None))
            if cls is not None:
                klass = getattr(owner, cls)
                orig = klass.__dict__[attr]
                self._set(klass, attr, orig, self._span(name, orig, before, after))
                continue
            orig = getattr(owner, attr)
            wrapped = self._span(name, orig, before, after)
            for module in modules:
                for key, val in list(vars(module).items()):
                    if val is orig:
                        self._set(module, key, orig, wrapped)
        for name, (mod, attr, classes) in COUNTERS.items():
            owner = sys.modules[f"{pkg}.{mod}"]
            for cls in classes:
                klass = getattr(owner, cls)
                orig = klass.__dict__[attr]
                self._set(klass, attr, orig, self._counter(name, orig))

    def _set(self, owner, attr, orig, new) -> None:
        self._installed.append((owner, attr, orig))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    # -- results

    def metrics(self, report_bytes: int, overhead_ratio: float) -> dict:
        n = max(self.requests, 1)
        c, calls = self.counts, self.calls
        out = {}
        for name in SELF_TIME:
            out[f"{name}.s"] = self.self_time[name] / n
        for name in CALLS:
            out[f"{name}.calls"] = calls[name] / n
        ball_calls = calls["groups.ball"]
        out["groups.ball.elements"] = c["groups.ball.elements"] / n
        out["groups.ball.reuse"] = c["groups.ball.reuse"] / ball_calls if ball_calls else 0.0
        out["groups.mul.calls"] = c["groups.mul"] / n
        out["groups.hom_apply.calls"] = c["groups.hom_apply"] / n
        out["cones.member.calls"] = c["cones.member"] / n
        sub_calls = calls["cones.is_subsemigroup"]
        out["cones.is_subsemigroup.value_pure"] = (
            c["cones.is_subsemigroup.value_pure"] / sub_calls if sub_calls else 0.0)
        out["covers.descent_steps"] = c["covers.descent_steps"] / n
        out["covering.census_per_request"] = calls["covering.subsemigroup_census"] / n
        out["covering.census.closed_subsets"] = c["covering.census.closed_subsets"] / n
        out["covering.two_cover_search.pairs"] = c["covering.two_cover_search.pairs"] / n
        out["snf.transform_bits.max"] = self.maxima["snf.transform_bits.max"]
        out["presentations.surjection_bits.max"] = self.maxima["presentations.surjection_bits.max"]
        out["cli.report_bytes"] = report_bytes / n
        out["trace.overhead_ratio"] = overhead_ratio
        return {k: {"value": v, "unit": LAYER_METRICS[k]} for k, v in out.items()}

    def write_spans(self, path) -> None:
        import json

        with open(path, "w") as fh:
            for req, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"request": req, "span": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
