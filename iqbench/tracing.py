"""Spans at the iqcontrol layer boundaries, recorded from outside the package.

``traced`` replaces the functions listed in ``WRAPPED`` by recording
wrappers, by setting attributes on the module objects, and puts the
originals back on exit.  Calls between modules, and calls inside a module
through its own globals, then pass through the wrappers, so each call
opens a span with its name, start, end, parent span and the id of the
config being run.  Only functions that cross a layer boundary or that a
per-layer count needs are wrapped, because every wrapper adds its cost to
the call it times.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# Module -> wrapped function names.  ``cli.solve_probe_spectrum`` is the
# name under which cli imported nlevel's solver; its span is named after
# the nlevel function.
WRAPPED = {
    "cli": ("main", "load_config", "validate_config", "solve_probe_spectrum"),
    "qubit": ("solve_controls_numeric", "closed_form_reduced_state",
              "conditional_unitaries", "overlap_angles",
              "reduced_state_closed_form", "spectral_form"),
    "opkit": ("expm_i_hermitian", "eig_hermitian", "validate_density_matrix",
              "trace_distance"),
    "nlevel": ("solve_probe_spectrum", "project_simplex"),
    "verify": ("check_solution",),
    "thermal": ("thermal_occupancy", "required_gap"),
}
_HOME = {("cli", "solve_probe_spectrum"): "nlevel"}


class Recorder:
    """In-memory spans plus per-layer self time and per-function totals.

    A span's self time is its duration minus the durations of its child
    spans (children nest inside one thread, so they never overlap).
    """

    def __init__(self):
        self.spans = []          # (name, config, parent index, start, end)
        self.config = -1
        self.self_ns = defaultdict(int)     # layer -> self time
        self.total_ns = defaultdict(int)    # function -> time inside it
        self.calls = Counter()
        self.child_calls = Counter()   # (parent name, name) -> calls
        self.solve_ns = defaultdict(list)  # reach dimension -> durations
        self.max_oracle = 0.0    # oracle distance of feasible solutions
        self._stack = []         # (index, name) of each open span
        self._child_ns = []      # child time of each open span

    def call(self, name, layer, fn, args, kwargs):
        parent, parent_name = self._stack[-1] if self._stack else (-1, "")
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append((index, name))
        self._child_ns.append(0)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            child = self._child_ns.pop()
            self.spans[index] = (name, self.config, parent, start, end)
            duration = end - start
            self.self_ns[layer] += duration - child
            self.total_ns[name] += duration
            self.calls[name] += 1
            if self._child_ns:
                self._child_ns[-1] += duration
                self.child_calls[parent_name, name] += 1
        if name == "verify.check_solution" and args[0].feasible:
            self.max_oracle = max(self.max_oracle, result)
        elif name == "nlevel.solve_probe_spectrum":
            self.solve_ns[args[0].dim].append(duration)
        return result

    def write(self, path):
        """Write the spans as CSV: id, parent, name, config, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,config,start_ns,end_ns\n")
            for i, (name, config, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{config},{start},{end}\n")


def _wrapper(rec: Recorder, name: str, layer: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, layer, fn, args, kwargs)
    return wrapper


@contextmanager
def traced(rec: Recorder, modules: dict):
    """Route the WRAPPED functions of ``modules`` through ``rec``."""
    saved = []
    try:
        for mod_name, names in WRAPPED.items():
            mod = modules[mod_name]
            for fn_name in names:
                layer = _HOME.get((mod_name, fn_name), mod_name)
                fn = getattr(mod, fn_name)
                saved.append((mod, fn_name, fn))
                setattr(mod, fn_name,
                        _wrapper(rec, f"{layer}.{fn_name}", layer, fn))
        yield rec
    finally:
        for mod, fn_name, fn in reversed(saved):
            setattr(mod, fn_name, fn)
