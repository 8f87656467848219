"""Spans around the public functions of each neron module, from outside.

`Tracer.install()` replaces every public function of each layer module with
a wrapper, in every `neron.*` module that imported it, and wraps the
Groebner entry points that carry the per-layer counters.  Spans are kept in
memory as (name, layer, start, end, parent, job, error) and written out by
`dump()`.  A layer's self time is its span time minus its child spans;
each job runs inside a root span of layer `cli`, so `cli` self time is the
job time that no other layer span covers.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

LAYERS = ("cli", "parser", "groebner", "hopf", "blowup", "reps", "images",
          "dgal", "linalg")

# Non-public names wrapped as well: every basis passes through _buchberger.
EXTRA = {"groebner": ("_buchberger",)}

# Ideal methods that do Groebner work for callers in other modules.
IDEAL_METHODS = ("basis", "tracked_basis", "normal_form", "contains")

ROOT = "job"

_NAME, _LAYER, _START, _END, _PARENT, _JOB, _ERROR = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [None]
        self._patched = []
        self.reset()

    def reset(self):
        """Zero the counters; spans are kept, and read by index range."""
        self.job = None
        self.bases = 0
        self.ring_vars_max = 0
        self.basis_len_max = 0
        self.basis_calls = 0
        self.basis_reused = 0
        self.solve_rows_max = 0
        self.solve_cols_max = 0
        self.solve_nonzeros = 0
        self.solve_cells = 0
        self.parser_bytes = 0

    # -- installing -----------------------------------------------------

    def install(self):
        import neron.groebner
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "neron" or n.startswith("neron."))]
        for layer in LAYERS:
            mod = sys.modules[f"neron.{layer}"]
            for name, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if name.startswith("_") and name not in EXTRA.get(layer, ()):
                    continue
                if inspect.isgeneratorfunction(fn):
                    continue
                wrapper = self._wrap(layer, name, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patched.append((m, attr, fn))
                            setattr(m, attr, wrapper)
        ideal = neron.groebner.Ideal
        for name in IDEAL_METHODS:
            fn = vars(ideal)[name]
            self._patched.append((ideal, name, fn))
            setattr(ideal, name, self._wrap("groebner", f"Ideal.{name}", fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched = []

    def _wrap(self, layer, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        before, after = _HOOKS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            span = [name, layer, 0, 0, stack[-1], self.job, False]
            spans.append(span)
            stack.append(len(spans) - 1)
            state = before(self, args) if before else None
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[_ERROR] = True
                raise
            finally:
                span[_END] = clock()
                stack.pop()
            if after:
                after(self, args, result, state)
            return result

        return wrapper

    # -- jobs -------------------------------------------------------------

    def run_job(self, job_id, fn):
        """Run fn() inside the job's root span."""
        self.job = job_id
        span = [ROOT, "cli", 0, 0, None, job_id, False]
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        span[_START] = time.perf_counter_ns()
        try:
            return fn()
        finally:
            span[_END] = time.perf_counter_ns()
            self.stack.pop()
            self.job = None

    # -- reading ----------------------------------------------------------

    def layer_stats(self, lo=0, hi=None):
        """Per-layer self time (ns), calls and errors of spans[lo:hi], and
        whether the layer self times add up to the root spans."""
        spans = self.spans[lo:hi]
        child = [0] * len(spans)
        for span in spans:
            if span[_PARENT] is not None:
                child[span[_PARENT] - lo] += span[_END] - span[_START]
        self_ns = {layer: 0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        errors = {layer: 0 for layer in LAYERS}
        names = {}
        root_ns = 0
        open_spans = 0
        for i, span in enumerate(spans):
            dur = span[_END] - span[_START]
            if span[_END] == 0:
                open_spans += 1
            self_ns[span[_LAYER]] += dur - child[i]
            if span[_NAME] == ROOT:
                root_ns += dur
                continue
            calls[span[_LAYER]] += 1
            errors[span[_LAYER]] += span[_ERROR]
            names[span[_NAME]] = names.get(span[_NAME], 0) + 1
        balanced = open_spans == 0 and sum(self_ns.values()) == root_ns
        return self_ns, calls, errors, names, root_ns, balanced

    def counters(self, lo=0, hi=None):
        """Machine-independent per-layer metrics of spans[lo:hi], with the
        counters gathered since the last reset()."""
        _, calls, errors, names, _, _ = self.layer_stats(lo, hi)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.errors"] = errors[layer]
        out["groebner.bases"] = self.bases
        out["groebner.ring_vars_max"] = self.ring_vars_max
        out["groebner.basis_len_max"] = self.basis_len_max
        out["groebner.basis_reuse_ratio"] = (
            self.basis_reused / self.basis_calls if self.basis_calls else 0.0)
        out["groebner.saturations"] = names.get("saturate", 0)
        out["groebner.pi_divisions"] = names.get("certified_pi_division", 0)
        out["hopf.checks"] = sum(names.get(n, 0) for n in
                                 ("check_hopf", "check_flat", "check_morphism"))
        out["hopf.tensor_ideals"] = names.get("tensor_ideal", 0)
        out["linalg.solves"] = names.get("solve", 0) + names.get("solve_tracked", 0)
        out["linalg.rows_max"] = self.solve_rows_max
        out["linalg.cols_max"] = self.solve_cols_max
        out["linalg.density"] = (
            self.solve_nonzeros / self.solve_cells if self.solve_cells else 0.0)
        out["dgal.levels"] = names.get("triviality_mod", 0)
        out["parser.bytes_in"] = self.parser_bytes
        return out

    def dump(self, path, span_range, header):
        """Write spans[lo:hi] as JSON lines after a one-line header."""
        lo, hi = span_range
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, s in enumerate(self.spans[lo:hi], lo):
                fh.write(json.dumps({"id": i, "name": s[_NAME], "layer": s[_LAYER],
                                     "start_ns": s[_START], "end_ns": s[_END],
                                     "parent": s[_PARENT], "job": s[_JOB],
                                     "error": s[_ERROR]}) + "\n")


# -- counter hooks: (before(tracer, args) -> state, after(tracer, args, result, state))


def _buchberger_before(t, args):
    t.bases += 1
    t.ring_vars_max = max(t.ring_vars_max, args[1].nvars)


def _buchberger_after(t, args, result, state):
    t.basis_len_max = max(t.basis_len_max, len(result[0]))


def _basis_before(t, args):
    return t.bases


def _basis_after(t, args, result, bases_before):
    t.basis_calls += 1
    if t.bases == bases_before:
        t.basis_reused += 1


def _solve_before(t, args):
    matrix = args[0]
    if matrix:
        rows, cols = len(matrix), len(matrix[0])
        t.solve_rows_max = max(t.solve_rows_max, rows)
        t.solve_cols_max = max(t.solve_cols_max, cols)
        t.solve_cells += rows * cols
        t.solve_nonzeros += sum(1 for row in matrix for x in row if x)


def _parse_before(t, args):
    if args and isinstance(args[0], str):
        t.parser_bytes += len(args[0].encode("utf-8"))


_HOOKS = {
    "_buchberger": (_buchberger_before, _buchberger_after),
    "Ideal.basis": (_basis_before, _basis_after),
    "Ideal.tracked_basis": (_basis_before, _basis_after),
    "solve": (_solve_before, None),
    "solve_tracked": (_solve_before, None),
}
for _name in ("parse", "parse_poly", "parse_fraction", "parse_poly_list",
              "parse_matrix"):
    _HOOKS[_name] = (_parse_before, None)
