"""In-memory span tracer that wraps the program's functions at run time.

The program is not edited: ``Tracer.instrument`` replaces functions in
the ``fsdp`` modules' namespaces with timing wrappers.  Calls between
functions of one module go through the module globals, so they are
caught as well.  Each span records its name, start, end and the index of
the span that was open when it started (its parent).

Spans of the boundary functions in ``GROUPS`` are always recorded; they
give the end-to-end times.  Every other public function (and the
methods in ``METHODS``) is recorded only while ``Tracer.full`` is set.
"""

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

MODULES = (
    "models", "dp", "rdp", "spectral", "markov", "ctmdp",
    "koopmans", "fixed_point", "discounting", "cli",
)

# End-to-end groups.  A group's time is the time covered by its outermost
# spans, so a solver called from inside another solver is not counted twice.
GROUPS = {
    "setup": {
        "cli.build_model", "models.ModelCard.build", "bench.setup",
    },
    "solve": {
        "dp.solve_vfi", "dp.solve_hpi", "dp.solve_opi", "rdp.rdp_solve",
        "ctmdp.ct_hpi", "koopmans.solve_lifetime_value", "koopmans.epstein_zin_value",
        "discounting.price_dividend_ratio", "discounting.harrison_kreps_price",
        "markov.stationary_distribution",
    },
    "sim": {
        "markov.simulate_chain", "ctmdp.simulate_jump_chain", "cli._simulate_mdp",
        "models.simulate_savings_wealth", "models.simulate_savings_wealth_stochastic",
        "models.simulate_investment", "models.simulate_hiring", "models.simulate_inventory",
    },
}
BOUNDARY = set().union(*GROUPS.values())

# Methods and private functions traced in addition to public functions.
METHODS = {
    "models": ["ModelCard.build"],
    "dp": ["MDPModel.discounted_kernel"],
    "rdp": ["RDPModel.aggregate"],
    "koopmans": [
        "KoopmansOperator.__call__", "Expectation.__call__", "Entropic.__call__",
        "KrepsPorteus.__call__", "QuantileCE.__call__",
    ],
    "cli": ["_simulate_mdp"],
}

SOLVERS = {"dp.solve_vfi", "dp.solve_hpi", "dp.solve_opi", "rdp.rdp_solve", "ctmdp.ct_hpi"}


def _array_bytes(a):
    if a is None:
        return 0
    if hasattr(a, "indptr"):  # scipy CSR/CSC
        return a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    return getattr(a, "nbytes", 0)


def mdp_bytes(model):
    """Bytes of the kernel, discount weights and cached discounted kernel."""
    return (
        _array_bytes(model.kernel)
        + _array_bytes(model.discount_weights)
        + _array_bytes(getattr(model, "_discounted", None))
    )


class Tracer:
    """Collects spans and a few counters from wrapped program functions."""

    def __init__(self, full):
        self.full = full
        self.spans = []
        self._stack = []
        self.reset()

    def reset(self):
        """Forget spans and counters (the wrappers keep the same lists)."""
        del self.spans[:]
        del self._stack[:]
        self.iterations = 0
        self.policies = set()
        self.kernel_bytes = {}
        self.retained_bytes = 0

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        boundary = name in BOUNDARY
        hook = self._hook(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not (boundary or self.full):
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None and self.full:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def _hook(self, name):
        if name == "dp.policy_value":
            def hook(args, kwargs, result):
                sigma = args[1] if len(args) > 1 else kwargs["sigma"]
                self.policies.add((id(args[0]), np.asarray(sigma, dtype=np.int64).tobytes()))
            return hook
        if name in SOLVERS:
            def hook(args, kwargs, result):
                self.iterations += int(result.iterations)
                model = args[0]
                model = getattr(model, "extras", {}).get("mdp", model)
                if hasattr(model, "discount_weights"):
                    size = mdp_bytes(model)
                    self.kernel_bytes[id(model)] = max(size, self.kernel_bytes.get(id(model), 0))
            return hook
        if name == "fixed_point.successive_approx":
            def hook(args, kwargs, result):
                self.retained_bytes += sum(getattr(u, "nbytes", 8) for u in result.iterates)
            return hook
        return None

    def instrument(self, package, everything=False):
        """Wrap functions of ``package``'s modules in place.

        Only the boundary functions are wrapped unless ``full`` or
        ``everything`` is set; a process that switches ``full`` between
        rounds wraps everything once.
        """
        wrap_all = self.full or everything
        for mod_name in MODULES:
            module = importlib.import_module(f"{package.__name__}.{mod_name}")
            names = [
                attr for attr, obj in list(vars(module).items())
                if inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
            ]
            names += METHODS.get(mod_name, [])
            for dotted in names:
                span_name = f"{mod_name}.{dotted}"
                if not (wrap_all or span_name in BOUNDARY):
                    continue
                owner, attr = module, dotted
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    owner = getattr(module, cls_name)
                original = getattr(owner, attr)
                if getattr(original, "__wrapped_by_perfbench__", False):
                    continue
                setattr(owner, attr, self._wrap(span_name, original))

    def region(self, name):
        """Context manager recording a span around benchmark code."""
        return _Region(self, name)

    # -- aggregation ------------------------------------------------------

    def summary(self):
        """Self time and calls per span name, and outermost time per group."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers = defaultdict(lambda: [0.0, 0.0, 0])  # self, total, calls
        for i, (name, start, end, parent) in enumerate(spans):
            entry = layers[name]
            entry[0] += (end - start) - child_time[i]
            entry[1] += end - start
            entry[2] += 1
        groups = {}
        for group, members in GROUPS.items():
            groups[group] = sum(
                end - start
                for i, (name, start, end, parent) in enumerate(spans)
                if name in members and not self._has_ancestor_in(i, members)
            )
        return {
            "layers": {k: {"self": v[0], "total": v[1], "calls": v[2]} for k, v in layers.items()},
            "groups": groups,
            "counters": {
                "iterations": self.iterations,
                "distinct_policies": len(self.policies),
                "kernel_bytes": sum(self.kernel_bytes.values()),
                "retained_bytes": self.retained_bytes,
            },
        }

    def _has_ancestor_in(self, i, members):
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] in members:
                return True
            parent = self.spans[parent][3]
        return False


class _Region:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), 0.0, t._stack[-1] if t._stack else -1])
        t._stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t._stack.pop()
        t.spans[self.idx][2] = time.perf_counter()
        return False
