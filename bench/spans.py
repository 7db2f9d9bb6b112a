"""Span tracing of casphere's layers from outside the package.

`Tracer.install()` replaces every public function of the layer modules,
at every module attribute that holds it (``casphere.energy.u_log_block``
is the same object as ``casphere.translation.u_log_block``), by a wrapper
that records one span per call.  Recursive calls such as
``u_log_block(..., "21")`` -> ``u_log_block(..., "12")`` go through the
patched module global and so are spans of their own.  `uninstall()` puts
the original objects back.

A span is ``[name, start, end, parent, request, key, extra]``: parent is
the index of the enclosing span (-1 at the root), request the id of the
request it belongs to (one energy, one integrand probe or one sweep
point), key the hashable arguments used for repeat counting and extra a
per-name detail (the fit delta of an energy, the l_max of an integrand).
"""

import contextlib
import importlib
import inspect
import math
import statistics
import time

LAYERS = ("specfun", "tmatrix", "translation", "energy", "asymptotics",
          "pfa_sign", "cli")

# energies whose t-matrix calls define quadrature nodes
ENERGY_CALLS = ("energy.casimir_energy", "energy.casimir_energy_nbody",
                "energy.integrand")

# marker attribute that identifies a wrapper, so a run can prove that
# none is installed
WRAPPED = "__bench_traced__"


# t-matrix diagonals: one call per sphere per quadrature node
T_LOG = ("tmatrix.t_scalar_log", "tmatrix.t_em_log")

# calls whose repeats are counted, keyed by their positional arguments
REPEAT_KEYED = ("translation.u_log_block", "specfun.bessel_ik_half_chain")

# calls that start a request when the CLI makes them
REQUEST_ROOTS = ENERGY_CALLS + ("energy.suggest_l_max",)


class Tracer:
    """Records spans of the layer functions while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._request = -1
        self._saved = []
        self._prev_root = None

    # -- requests -----------------------------------------------------------

    def new_request(self):
        """Start a request; spans opened from now on carry its id."""
        self._request += 1
        self._prev_root = None

    def _maybe_new_request(self, name):
        # the benchmark starts each of its own requests; inside the CLI a
        # sweep point is one energy call together with the suggest_l_max
        # probe that sized it
        if name not in REQUEST_ROOTS or not self._stack:
            return
        if not self.spans[self._stack[-1]][0].startswith("cli."):
            return
        if not (name == "energy.casimir_energy"
                and self._prev_root == "energy.suggest_l_max"):
            self._request += 1
        self._prev_root = name

    # -- spans --------------------------------------------------------------

    def open(self, name, key=None):
        self._maybe_new_request(name)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), math.nan, parent,
                           self._request, key, None])
        self._stack.append(idx)
        return idx

    def close(self, idx, extra=None):
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError("span stack out of order")
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[6] = extra

    @contextlib.contextmanager
    def span(self, name, key=None):
        """A span opened by the benchmark itself."""
        idx = self.open(name, key)
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, name, fn):
        tracer = self
        keyed = name in REPEAT_KEYED

        def wrapper(*args, **kwargs):
            idx = tracer.open(name, tuple(args) if keyed else None)
            extra = None
            try:
                result = fn(*args, **kwargs)
                if name == "energy.integrand":
                    extra = args[3] if len(args) > 3 else kwargs.get("l_max")
                elif name in ("energy.casimir_energy",
                              "energy.casimir_energy_nbody"):
                    extra = [result.delta_fit, len(result.history)]
                elif name in T_LOG:
                    extra = args[2] if len(args) > 2 else kwargs.get("kappa")
                return result
            finally:
                tracer.close(idx, extra)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        setattr(wrapper, WRAPPED, True)
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every public layer function at every import site."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = loaded_modules()
        wrappers = {}
        for layer in LAYERS:
            mod = mods["casphere." + layer]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(layer + "." + attr, obj))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def loaded_modules():
    """The casphere package and its layer modules, by dotted name."""
    pkg = importlib.import_module("casphere")
    mods = {"casphere": pkg}
    for layer in LAYERS:
        mods["casphere." + layer] = importlib.import_module(
            "casphere." + layer)
    return mods


def wrapped_attributes():
    """(module, attribute) pairs that currently hold a tracing wrapper."""
    found = []
    for name, mod in loaded_modules().items():
        for attr, obj in vars(mod).items():
            if getattr(obj, WRAPPED, False):
                found.append((name, attr))
    return found


def self_times(spans):
    """Self time of every span: duration minus the union of its children.

    Children are clipped to their parent's interval before the union is
    taken, so overlapping or stray child intervals are never counted
    twice or outside the parent.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        ivals = sorted((max(start, spans[c][1]), min(end, spans[c][2]))
                       for c in children[i])
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in ivals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _rate(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics of a traced run, per traced pass.

    Spans under ``bench.pass`` roots are the passes; ``threej_family``
    is counted under the ``bench.setup`` root instead, because the 3j
    families are built only while the caches fill.  Metrics of a
    mechanism a workload does not have (no l=32 node) are 0.
    """
    selfs = self_times(spans)
    root = []
    for i, span in enumerate(spans):
        root.append(i if span[3] < 0 else root[span[3]])
    phase = [spans[r][0] for r in root]
    n_pass = sum(1 for s in spans if s[0] == "bench.pass" and s[3] < 0)

    def in_pass(i):
        return phase[i] == "bench.pass"

    def calls_self(prefixes, where=in_pass, per=n_pass):
        idx = [i for i, s in enumerate(spans)
               if where(i) and s[0].startswith(prefixes)]
        return (_rate(len(idx), per), _rate(sum(selfs[i] for i in idx), per))

    def repeat_frac(name):
        seen, calls, repeats = set(), 0, 0
        for i, s in enumerate(spans):
            if s[0] == name and in_pass(i):
                calls += 1
                key = (s[4], s[5])
                repeats += key in seen
                seen.add(key)
        return _rate(repeats, calls)

    def ancestor(i, names):
        p = spans[i][3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        return p

    out = {}
    for metric, name in (
            ("translation.u_log_block", "translation.u_log_block"),
            ("translation.em_log_blocks", "translation.em_log_blocks"),
            ("specfun.bessel_chain", "specfun.bessel_ik_half_chain")):
        out[metric + ".calls"], out[metric + ".self_s"] = calls_self(name)
        if name in REPEAT_KEYED:
            out[metric + ".repeat_frac"] = repeat_frac(name)
    out["specfun.threej_family.calls"], out["specfun.threej_family.self_s"] = \
        calls_self("specfun.threej_family",
                   where=lambda i: phase[i] == "bench.setup", per=1)
    out["tmatrix.t_log.calls"], out["tmatrix.t_log.self_s"] = calls_self(
        T_LOG)

    nodes = set()
    for i, s in enumerate(spans):
        if s[0] in T_LOG and in_pass(i):
            owner = ancestor(i, ENERGY_CALLS)
            if owner >= 0:
                nodes.add((owner, s[6]))
    outer = [i for i, s in enumerate(spans) if s[0] in REQUEST_ROOTS
             and in_pass(i) and ancestor(i, REQUEST_ROOTS) < 0]
    out["energy.nodes"] = _rate(len(nodes), n_pass)
    out["energy.per_node_ms"] = 1e3 * _rate(
        sum(spans[i][2] - spans[i][1] for i in outer), len(nodes))
    out["energy.self_s"] = calls_self("energy.")[1]
    l32 = [s[2] - s[1] for i, s in enumerate(spans)
           if s[0] == "energy.integrand" and s[6] == 32 and in_pass(i)]
    out["energy.l32_node_ms"] = 1e3 * statistics.median(l32) if l32 else 0.0
    suggest = [s[2] - s[1] for i, s in enumerate(spans)
               if s[0] == "energy.suggest_l_max" and in_pass(i)]
    out["energy.suggest_l_max.calls"] = _rate(len(suggest), n_pass)
    out["energy.suggest_l_max.s"] = _rate(sum(suggest), n_pass)
    fits = [s[6][0] for i, s in enumerate(spans)
            if s[0] in ("energy.casimir_energy",
                        "energy.casimir_energy_nbody")
            and in_pass(i) and s[6][1] >= 4
            and ancestor(i, ("energy.suggest_l_max",)) < 0]
    out["energy.fit_rejected_frac"] = _rate(
        sum(1 for delta in fits if delta != delta), len(fits))
    out["asymptotics.calls"], out["asymptotics.self_s"] = calls_self(
        "asymptotics.")
    out["pfa_sign.self_s"] = calls_self("pfa_sign.")[1]
    out["cli.self_s"] = calls_self("cli.")[1]
    return out

