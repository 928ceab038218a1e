"""Outside-in layer tracing: wrap orbitscope's layer-entry callables.

The program itself carries no tracing.  ``Tracer.install`` replaces each
callable in ``TARGETS`` with a timing wrapper and rebinds every name that
refers to the original in every ``orbitscope`` module, because a name
bound by ``from x import f`` is a separate reference and would otherwise
go untraced.  Methods are wrapped on their class.

Spans (id, name, start, end, parent id, job id) are kept in memory and
handed out when the pass ends.  Hot leaf callables (``HOT``, up to a
million calls per job) are aggregated instead of recorded one span each;
their time still counts as child time of the enclosing span, so self
times stay exact.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import defaultdict

# (module, qualified name) of every traced callable, grouped by layer.
TARGETS = [
    ("cli", "main"), ("cli", "load_group_spec"), ("cli", "_basis_for"),
    ("rationals", "mat_mul"), ("rationals", "rref"), ("rationals", "nullspace"),
    ("rationals", "RowReducer.add"), ("rationals", "RowReducer.residual"),
    ("polynomials", "reynolds"), ("polynomials", "substitute"),
    ("polynomials", "compile_polynomial"), ("polynomials", "compile_gradient"),
    ("polynomials", "NumericPoly.__call__"), ("polynomials", "NumericPoly.eval_many"),
    ("groups", "close_generators"), ("groups", "all_subgroups"),
    ("groups", "fixed_subspace"), ("groups", "invariant_metric"),
    ("groups", "isotropy_subgroup"), ("groups", "conjugate_subgroup"),
    ("invariants", "molien_series"), ("invariants", "compute_mib"),
    ("invariants", "find_relations"), ("invariants", "p_matrix"),
    ("invariants", "express_in_basis"), ("invariants", "invariant_space_basis"),
    ("strata", "symmetry_types"), ("strata", "isotropy_lattice"),
    ("strata", "principal_stratum"), ("strata", "principal_critical_orbits"),
    ("landau", "build_generic"), ("landau", "LandauModel.potential"),
    ("landau", "minimize"), ("landau", "sweep"), ("landau", "classify_symmetry"),
    ("params", "substitute_param"), ("params", "compose_param"),
    ("reduction", "reduce"), ("reduction", "removable_terms"),
    ("reduction", "verify_reduction"), ("reduction", "GradedPotential.from_model"),
    ("dynamics", "gradient_field"), ("dynamics", "integrate"),
    ("dynamics", "GradientField.__call__"), ("dynamics", "GradientField.potential"),
    ("dynamics", "project_trajectory"), ("dynamics", "dump_trajectory_csv"),
]

HOT = {
    "rationals.mat_mul", "rationals.RowReducer.add", "rationals.RowReducer.residual",
    "rationals.rref", "rationals.nullspace", "polynomials.NumericPoly.__call__",
    "polynomials.NumericPoly.eval_many", "dynamics.GradientField.__call__",
    "dynamics.GradientField.potential", "groups.isotropy_subgroup",
    "groups.conjugate_subgroup", "polynomials.reynolds",
}


def _compute_mib_counters(args, kwargs, result):
    rep = args[0]
    cap = kwargs.get("degree_cap", args[1] if len(args) > 1 else None)
    cap = rep.order if cap is None else cap
    return {"top_degree": max(result.degrees, default=0), "degree_cap": cap}


def _integrate_counters(args, kwargs, result):
    return {"steps": len(result.times) - 1}


def _sweep_counters(args, kwargs, result):
    return {"grid_points": len(result.points)}


# Work counters read off a traced call's arguments and result.
OBSERVERS = {
    "invariants.compute_mib": _compute_mib_counters,
    "dynamics.integrate": _integrate_counters,
    "landau.sweep": _sweep_counters,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []      # (id, name, start_ns, end_ns, parent_id, job)
        self.calls = defaultdict(int)
        self.incl_ns = defaultdict(int)   # outermost activations only
        self.self_ns = defaultdict(int)
        self.edge_calls = defaultdict(int)  # (parent name, name) -> calls
        self.counters = defaultdict(int)  # "name.counter" -> total
        self.job = None
        self._stack: list[list] = []      # [span id, name, child ns]
        self._depth = defaultdict(int)
        self._next_id = 0

    def _wrap(self, name: str, fn):
        hot = name in HOT
        observe = OBSERVERS.get(name)
        stack, depth = self._stack, self._depth
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, name, 0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                dur = end - start
                self.calls[name] += 1
                self.self_ns[name] += dur - frame[2]
                if depth[name] == 0:
                    self.incl_ns[name] += dur
                if parent is not None:
                    parent[2] += dur
                self.edge_calls[(parent[1] if parent else None, name)] += 1
                if not hot:
                    self.spans.append(
                        (frame[0], name, start, end, parent[0] if parent else None, self.job)
                    )
            if observe is not None:
                for key, value in observe(args, kwargs, result).items():
                    self.counters[f"{name}.{key}"] += value
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every target and rebind each reference to it in ``package``."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m.name}")
            for m in pkgutil.iter_modules(package.__path__)
            if m.name != "__main__"
        ]
        for mod_name, qualname in TARGETS:
            module = importlib.import_module(f"{package.__name__}.{mod_name}")
            name = f"{mod_name}.{qualname}"
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, self._wrap(name, raw))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
