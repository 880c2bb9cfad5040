"""Per-layer tracing by wrapping logladder's functions from outside.

A Tracer replaces functions and methods of the loaded logladder modules with
wrappers that count calls and time them, and puts the originals back on
close(). Nothing under src/ knows about it. Each probe name groups one or
more callables; calls and time are counted only at the outermost active
call of a probe, so recursion and calls between members of one group are
not counted twice. Each call records its wall time into the nearest
enclosing probe call by layer, which gives self times.

Only the benchmark's traced run installs a Tracer; the untraced run measures
the program as users run it.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class _Frame:
    probe: str
    start: float
    child: dict = field(default_factory=lambda: defaultdict(float))


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.ms = defaultdict(float)
        self.self_ms = defaultdict(float)
        self.counts = defaultdict(int)
        self.kernel_s = defaultdict(float)
        self._depth = defaultdict(int)
        self._stack: list[_Frame] = []
        self._layer: dict[str, str] = {}
        self._self_excludes: dict[str, frozenset] = {}
        self._patches: list = []

    # -- installing ------------------------------------------------------------

    def probe(self, owner, attrs, probe: str, *, layer: str,
              timed: bool = True, self_excludes=(), hook=None,
              prepare=None):
        """Wrap owner.<attr> for each attr under one probe name.

        owner is a module or a class. hook(tracer, args, kwargs, result,
        seconds) runs after each outermost call; prepare(args, kwargs)
        may return replacement (args, kwargs) with the same meaning.
        self_excludes names the layers whose direct child calls are
        subtracted to give the probe's self time.
        """
        self._layer[probe] = layer
        self._self_excludes[probe] = frozenset(self_excludes)
        for attr in attrs:
            if attr not in vars(owner):
                raise AttributeError(f"{owner.__name__} has no {attr}")
            original = vars(owner)[attr]
            wrapper = (self._timed(original, probe, hook, prepare) if timed
                       else self._counted(original, probe))
            self._replace(owner, attr, original, wrapper)

    def _replace(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        # Rebind the name in every logladder module that imported it with
        # 'from .module import name'.
        for name, mod in list(sys.modules.items()):
            if (name.startswith("logladder") and mod is not owner
                    and vars(mod).get(attr) is original):
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def close(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers --------------------------------------------------------------

    def _counted(self, fn, probe):
        depth = self._depth
        calls = self.calls

        def wrapper(*args, **kwargs):
            if depth[probe]:
                return fn(*args, **kwargs)
            calls[probe] += 1
            depth[probe] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[probe] -= 1

        return wrapper

    def _timed(self, fn, probe, hook, prepare):
        depth = self._depth
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if depth[probe]:
                return fn(*args, **kwargs)
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            frame = _Frame(probe, clock())
            stack.append(frame)
            depth[probe] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame.start
                depth[probe] -= 1
                stack.pop()
                self._finish(frame, elapsed)
            if hook is not None:
                hook(self, args, kwargs, result, elapsed)
            return result

        return wrapper

    def _finish(self, frame: _Frame, seconds: float) -> None:
        probe = frame.probe
        self.calls[probe] += 1
        self.ms[probe] += seconds * 1e3
        excluded = sum(
            t for layer, t in frame.child.items()
            if layer in self._self_excludes[probe]
        )
        self.self_ms[probe] += (seconds - excluded) * 1e3
        if self._stack:
            self._stack[-1].child[self._layer[probe]] += seconds

    def snapshot(self) -> dict:
        """Every call count and counter, for comparing two passes."""
        return {**self.calls, **self.counts}


# -- the probe table -----------------------------------------------------------

LAYERS = ("cli", "expr", "criteria", "limits", "numeric", "scale", "sums")


def _as_list_arg(args, kwargs):
    """estimate_* call list(values) first; doing it here lets the hook
    count the samples without consuming a one-shot iterable."""
    return (list(args[0]),) + tuple(args[1:]), kwargs


def _count_samples(tracer, args, kwargs, result, seconds):
    offered = len(args[0])
    if isinstance(result, tuple):  # (limsup, liminf) envelopes
        used = max(r.samples_used for r in result)
    else:
        used = result.samples_used
    tracer.counts["limits.samples_offered"] += offered
    tracer.counts["limits.samples_used"] += min(used, offered)


def _count_terms(tracer, args, kwargs, result, seconds):
    shape = "log" if "ln" in args[0].text else "power"
    tracer.counts[f"sums.terms.{shape}"] += result[2]
    tracer.kernel_s[shape] += seconds


def install(tracer: Tracer, modules) -> None:
    """Wrap the public functions of each layer (and the sums kernel)."""
    cli, cr, ex, lm, nm, sc, sm = (modules[k] for k in (
        "cli", "criteria", "expr", "limits", "numeric", "scale", "sums"))
    p = tracer.probe
    p(cli, ["main"], "cli.main", layer="cli",
      self_excludes=("criteria", "sums"))

    p(cr.ExprTerm, ["__init__"], "expr.term_build", layer="expr")
    p(ex, ["domain_start"], "expr.domain_start", layer="expr")
    p(ex, ["check_positive"], "expr.check_positive", layer="expr")
    p(ex, ["eval_expr"], "expr.eval_expr", layer="expr", timed=False)
    p(ex, ["log_transform", "linearize"], "expr.linearize", layer="expr")
    p(ex, ["to_log_power"], "expr.to_log_power", layer="expr")

    p(cr, ["analyze"], "criteria.analyze", layer="criteria")
    p(cr, ["raabe_test"], "criteria.raabe", layer="criteria")
    p(cr, ["scaled_log_test"], "criteria.scaled_log", layer="criteria")
    p(cr, ["hierarchy_test"], "criteria.hierarchy", layer="criteria")
    p(cr, ["slow_divergence_test"], "criteria.slow_divergence",
      layer="criteria")
    p(cr, ["one_sided_test"], "criteria.one_sided", layer="criteria")

    p(lm, ["estimate_limit", "estimate_limsup_liminf"], "limits.estimate",
      layer="limits", hook=_count_samples, prepare=_as_list_arg)
    p(lm, ["make_grid"], "limits.make_grid", layer="limits")

    ext_ops = [name for name in vars(nm) if name.startswith("ext_")]
    p(nm, ext_ops + ["iter_ln"], "numeric.ext_op", layer="numeric",
      timed=False)
    p(nm, ["from_value"], "numeric.from_value", layer="numeric", timed=False)
    p(nm, ["local_precision"], "numeric.local_precision", layer="numeric",
      timed=False)

    for cls in (sc.ScaleFn, *sc.ScaleFn.__subclasses__()):
        attrs = [a for a in ("delta", "log_delta", "delta_correction")
                 if a in vars(cls)]
        if attrs:
            p(cls, attrs, "scale.delta", layer="scale")

    p(sm, ["partial_sum"], "sums.partial_sum", layer="sums")
    p(sm, ["tail_sum"], "sums.tail_sum", layer="sums")
    p(sm, ["checkpoint_sums"], "sums.checkpoint_sums", layer="sums")
    p(sm, ["slope_check"], "sums.slope_check", layer="sums",
      self_excludes=LAYERS)
    # The private chunk loop is the one place that knows how many terms
    # were evaluated; its time per term shape gives the kernel rates.
    p(sm, ["_run", "_run_precise"], "sums.kernel", layer="sums",
      hook=_count_terms)
