"""Spans around qrec's layers, recorded from outside the package.

``Tracer.install`` replaces every public function of each layer module with a
wrapper that records a span: name, start, end, parent span and job id.  A
function imported by name into another module (``from .x import y``) is
replaced there too, or calls through that name would be missed.  Calls inside
one layer are folded into the caller's span, except for the functions in
``INNER``, whose own time the per-layer metrics need.  ``uninstall`` puts the
original functions back, so untraced passes run unwrapped code.
"""
from __future__ import annotations

import functools
import json
from time import perf_counter

LAYERS = ("cli", "cartan", "weights", "qsystem", "linrec", "fields",
          "conjectures", "linalg")

INNER = frozenset({"linrec.berlekamp_massey", "linrec.find_min_recurrence",
                   "qsystem.initial_values", "qsystem.generate"})

# work measures taken from a span's arguments or result
SIZES = {
    "linrec.berlekamp_massey": lambda args, result: len(args[0]),
    "qsystem.generate": lambda args, result: sum(max(0, len(seq) - 2)
                                                 for seq in result.values),
}

# per-layer metric: (unit, better, end-to-end metric it should move, workloads)
METRICS = {
    "linrec.bm_s": ("s", "lower", "wall_s job_s_max", "exact-detect character-verify"),
    "linrec.bm_terms": ("count", "lower", "wall_s peak_rss_mb", "exact-detect character-verify"),
    "linrec.bm_calls": ("count", "lower", "wall_s job_s_max", "modular-deep"),
    "linrec.detections": ("count", "lower", "wall_s job_s_max", "modular-deep"),
    "linrec.bm_useful_ratio": ("ratio", "higher", "wall_s job_s_max", "modular-deep"),
    "linrec.validate_s": ("s", "lower", "wall_s", "modular-deep"),
    "linrec.consensus_self_s": ("s", "lower", "wall_s", "modular-deep modular-sweep"),
    "linrec.s": ("s", "lower", "wall_s", "exact-detect character-verify modular-deep"),
    "qsystem.generate_s": ("s", "lower", "wall_s job_s_p50", "modular-sweep"),
    "qsystem.generate_calls": ("count", "lower", "wall_s job_s_p50", "modular-sweep"),
    "qsystem.levels": ("count", "lower", "wall_s job_s_p50", "modular-sweep"),
    "qsystem.levels_per_detection": ("count", "lower", "wall_s job_s_p50", "modular-sweep"),
    "qsystem.initial_values_s": ("s", "lower", "job_s_p50", "character-verify"),
    "qsystem.s": ("s", "lower", "wall_s job_s_p50", "modular-sweep"),
    "weights.s": ("s", "lower", "job_s_p50", "character-verify"),
    "weights.calls": ("count", "lower", "job_s_p50", "character-verify"),
    "fields.crt_s": ("s", "lower", "wall_s", "modular-sweep character-verify"),
    "fields.crt_calls": ("count", "lower", "wall_s", "modular-sweep character-verify"),
    "fields.primes_s": ("s", "lower", "wall_s", "modular-sweep character-verify"),
    "fields.s": ("s", "lower", "wall_s", "modular-sweep"),
    "conjectures.s": ("s", "lower", "job_s_p50", "character-verify modular-sweep"),
    "conjectures.calls": ("count", "lower", "job_s_p50", "character-verify modular-sweep"),
    "linalg.solve_s": ("s", "lower", "job_s_p50", "character-verify modular-sweep"),
    "linalg.s": ("s", "lower", "job_s_p50", "modular-sweep"),
    "cli.self_s": ("s", "lower", "setup_s job_s_p50", "all"),
    "cartan.s": ("s", "lower", "setup_s job_s_p50", "all"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall_s", "all"),
}


def public_functions(module):
    """Public functions (plain or lru-cached) defined in the module itself."""
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name, obj


class Tracer:
    def __init__(self, package, layer_modules):
        self.package = package
        self.layer_modules = layer_modules  # layer name -> module
        self.spans = []  # [name, layer, start, end, parent, job, ok, size]
        self.stack = []  # indices of the open spans
        self.job = -1  # id of the job being run, shared by its spans
        self._patches = []  # (module, attribute, original function)

    def next_job(self):
        self.job += 1

    def _wrap(self, layer, name, fn):
        full = f"{layer}.{name}"
        inner = full in INNER
        size = SIZES.get(full)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and not inner and spans[stack[-1]][1] == layer:
                return fn(*args, **kwargs)
            span = [full, layer, 0.0, 0.0, stack[-1] if stack else -1, self.job, False, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[6] = True
            finally:
                span[3] = perf_counter()
                stack.pop()
            if size is not None:
                span[7] = size(args, result)
            return result

        return wrapper

    def install(self):
        wrappers = {}
        for layer, module in self.layer_modules.items():
            for name, fn in public_functions(module):
                wrappers[id(fn)] = self._wrap(layer, name, fn)
        for module in (self.package, *self.layer_modules.values()):
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def uninstall(self):
        for module, attr, original in self._patches:
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path):
        """All spans as JSON lines: name, start, end, parent index, job id."""
        with open(path, "w") as handle:
            for name, _, start, end, parent, job, _, _ in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "job": job}) + "\n")

    def metrics(self, passes: int, traced_wall: float, untraced_wall: float) -> dict:
        """Per-pass per-layer metrics over the traced passes, given the job
        list's time in the traced and the untraced passes."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, self_s, calls, ok_calls, size = {}, {}, {}, {}, {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        layer_calls = dict.fromkeys(LAYERS, 0)
        for i, (name, layer, start, end, parent, _, ok, n) in enumerate(self.spans):
            own = end - start - child[i]
            total[name] = total.get(name, 0.0) + end - start
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            ok_calls[name] = ok_calls.get(name, 0) + ok
            size[name] = size.get(name, 0) + n
            layer_self[layer] += own
            if parent < 0 or self.spans[parent][1] != layer:
                layer_calls[layer] += 1

        bm_calls = calls.get("linrec.berlekamp_massey", 0)
        detections = ok_calls.get("linrec.find_min_recurrence", 0)
        levels = size.get("qsystem.generate", 0)
        values = {
            "linrec.bm_s": total.get("linrec.berlekamp_massey", 0.0),
            "linrec.bm_terms": size.get("linrec.berlekamp_massey", 0),
            "linrec.bm_calls": bm_calls,
            "linrec.detections": detections,
            "linrec.bm_useful_ratio": detections / bm_calls if bm_calls else 0.0,
            "linrec.validate_s": self_s.get("linrec.find_min_recurrence", 0.0),
            "linrec.consensus_self_s": self_s.get("linrec.multi_prime_detect", 0.0),
            "linrec.s": layer_self["linrec"],
            "qsystem.generate_s": self_s.get("qsystem.generate", 0.0),
            "qsystem.generate_calls": calls.get("qsystem.generate", 0),
            "qsystem.levels": levels,
            "qsystem.levels_per_detection": levels / detections if detections else 0.0,
            "qsystem.initial_values_s": total.get("qsystem.initial_values", 0.0),
            "qsystem.s": layer_self["qsystem"],
            "weights.s": layer_self["weights"],
            "weights.calls": layer_calls["weights"],
            "fields.crt_s": total.get("fields.crt_symmetric", 0.0),
            "fields.crt_calls": calls.get("fields.crt_symmetric", 0),
            "fields.primes_s": total.get("fields.seeded_primes", 0.0),
            "fields.s": layer_self["fields"],
            "conjectures.s": layer_self["conjectures"],
            "conjectures.calls": layer_calls["conjectures"],
            "linalg.solve_s": total.get("linalg.solve_overdetermined", 0.0),
            "linalg.s": layer_self["linalg"],
            "cli.self_s": layer_self["cli"],
            "cartan.s": layer_self["cartan"],
        }
        # the ratios are per call already; everything else is per pass
        per_pass = {k: v if k.endswith(("_ratio", "_per_detection")) else v / passes
                    for k, v in values.items()}
        per_pass["trace.overhead_s"] = traced_wall - untraced_wall
        return per_pass
