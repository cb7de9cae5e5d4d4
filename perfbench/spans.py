"""Span tracing installed from outside the package.

``Tracer`` wraps every public function of every fasloc module and records
one span per call.

fasloc modules import functions by name (``from .forward_model import
predicted_rssi``), so a function is rebound in every module namespace that
holds it, not only in the module that defines it.
"""

import gzip
import importlib
import inspect
import json
import time

LAYERS = ("specfun", "channel", "forward_model", "estimators", "experiments", "cli")


class Tracer:
    """In-memory spans: name, start, end, parent span and group.

    A group is one unit of work: one paired trial of a sweep (a new group
    starts when ``simulate_measurements`` sees a new trial seed, and again
    when an axis point's set-up starts) or one ``cli.main`` estimate call
    (``new_group`` from the workload loop).
    """

    def __init__(self):
        self.names = []
        self.span_name = []
        self.start = []
        self.end = []
        self.parent = []
        self.group = []
        # (span index, iterations, converged) for each estimator call
        self.estimates = []
        self._stack = []
        self._group = 0
        self._groups = 0
        self._trial_seed = None
        self._bindings = []

    def new_group(self):
        self._groups += 1
        self._group = self._groups
        self._trial_seed = None

    def install(self):
        """Wrap every public function of every layer, in every fasloc
        module namespace that binds it; tracing starts enabled."""
        mods = {layer: importlib.import_module(f"fasloc.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in [importlib.import_module("fasloc"), *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._bindings.append((mod, attr, obj, wrappers[id(obj)]))
        self.enable(True)

    def enable(self, on):
        """Bind the wrappers (on) or the original functions (off)."""
        for mod, attr, original, wrapper in self._bindings:
            setattr(mod, attr, wrapper if on else original)

    def _wrap(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns
        stack = self._stack
        is_estimator = name.startswith("estimators.estimate_")
        is_simulation = name == "forward_model.simulate_measurements"
        is_point_setup = name in ("channel.build_covariance", "channel.average_mu_squared")
        root = "experiments.run_experiment"

        def traced(*args, **kwargs):
            if is_simulation:
                seed = args[3] if len(args) > 3 else kwargs.get("rng_seed")
                if seed != self._trial_seed:
                    self.new_group()
                    self._trial_seed = seed
            elif (is_point_setup and stack and self._trial_seed is not None
                  and self.names[self.span_name[stack[-1]]] == root):
                self.new_group()
            sid = len(self.start)
            self.span_name.append(idx)
            self.parent.append(stack[-1] if stack else -1)
            self.group.append(self._group)
            self.start.append(0)
            self.end.append(0)
            stack.append(sid)
            self.start[sid] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()
            if is_estimator:
                self.estimates.append((sid, int(out.iterations), bool(out.converged)))
            return out
        return traced

    def summary(self):
        """Per span name: calls, inclusive ns and self ns (span time minus
        the time its child spans cover)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "incl_ns": 0, "self_ns": 0} for name in self.names}
        for i in range(n):
            s = out[self.names[self.span_name[i]]]
            s["calls"] += 1
            s["incl_ns"] += dur[i]
            s["self_ns"] += dur[i] - child[i]
        return out

    def estimator_stats(self):
        """Per estimator: calls, summed iterations, non-converged calls, and
        calls made from inside another estimator (the MLE tie-break)."""
        out = {}
        for sid, iterations, converged in self.estimates:
            name = self.names[self.span_name[sid]]
            s = out.setdefault(name, {"calls": 0, "iterations": 0,
                                      "nonconverged": 0, "nested": 0})
            s["calls"] += 1
            s["iterations"] += iterations
            s["nonconverged"] += 0 if converged else 1
            p = self.parent[sid]
            if p >= 0 and self.names[self.span_name[p]].startswith("estimators."):
                s["nested"] += 1
        return out

    def write(self, path):
        payload = {"names": self.names, "name": self.span_name, "start_ns": self.start,
                   "end_ns": self.end, "parent": self.parent, "group": self.group}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))
