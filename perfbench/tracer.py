"""In-process layer trace of `lindiff` commands.

The tracer wraps each name where its caller looks it up, not where it
is defined (``cli`` binds ``run_experiment`` at import, ``experiment``
binds the closed forms, ``sampler`` binds ``expint_ei``).  It changes no
file: wrappers are installed on the imported modules and removed again.

Scalar layers are called about a million times per command, so each
wrapped name keeps an aggregate call count and total time instead of
one span per call.  ``cli.run_experiment`` is the root span; the time
of every wrapped call made directly under it (not nested inside another
wrapped call) is summed, and the root's self time is the rest.  A name
that no longer exists is recorded as absent instead of failing.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from pathlib import Path

# special.expint_ei returns -0.0 below this argument: e^x underflows.
# The other regime thresholds are read from special.py and sampler.py,
# falling back to the seed commit's values if those names disappear.
_EI_UNDERFLOW = -745.0

ROOT = "cli.run_experiment"
SUITE_NAMES = ("one-layer", "two-layer", "mean-cov", "conv", "variants")
SPANS = (
    "experiment.make_covariance",
    "experiment.generated_variance",
    "experiment.one_layer_psi",
    "experiment.two_layer_psi",
    "experiment.emergence_time",
    "experiment.power_law_fit",
    "experiment._emit_table",
    "sampler.expint_ei",
    "metrics.kl_shared_basis",
    "experiment.gradient_flow_full",
    "validation.gradient_flow_full",
    "oracle.rk4_path",
    "oracle.rk45_path",
)

# The layer metrics that time calls made directly under the root span;
# with experiment.self_s they add up to experiment.run_s.
DIRECT_CHILDREN = (
    "gaussian.make_covariance_s",
    "sampler.gv_s",
    "dynamics.psi_s",
    "analysis.emergence_s",
    "analysis.fit_s",
    "experiment.emit_s",
    "metrics.kl_s",
    "oracle.flow_s",
)


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    direct_s: float = 0.0  # part spent in calls made directly under the root


@dataclass
class Trace:
    stats: dict[str, Stat] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    suite_s: dict[str, float] = field(default_factory=dict)
    suite_dev: dict[str, float] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    unobserved: set[str] = field(default_factory=set)  # hooks that raised

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


class Tracer:
    """Install wrappers on the ``lindiff`` modules; ``remove`` undoes them."""

    def __init__(self) -> None:
        self.trace = Trace()
        self._depth = 0
        self._in_root = False
        self._undo: list = []
        special, sampler = self._module("special"), self._module("sampler")
        self._cf = float(getattr(special, "_CF_CROSSOVER", 6.0))
        self._asym = float(getattr(special, "_ASYMPTOTIC_CROSSOVER", 40.0))
        self._early = float(getattr(sampler, "_EARLY_THRESHOLD", 1e-12))
        self._late = float(getattr(sampler, "_LATE_THRESHOLD", 50.0))

    @staticmethod
    def _module(name: str):
        try:
            return importlib.import_module(f"lindiff.{name}")
        except ImportError:
            return None

    def install(self) -> "Tracer":
        hooks = {
            "sampler.expint_ei": {"before": self._observe_ei},
            "oracle.rk4_path": {"before": self._count_rhs("rk4_rhs")},
            "oracle.rk45_path": {"before": self._count_rhs("rk45_rhs")},
            "experiment.generated_variance": {"after": self._observe_cell},
            "experiment.one_layer_psi": {"after": self._observe_psi},
            "experiment.two_layer_psi": {"after": self._observe_psi},
            "experiment.emergence_time": {"after": self._observe_crossing},
            "experiment._emit_table": {"after": self._observe_emit},
            "metrics.kl_shared_basis": {"after": self._observe_kl},
        }
        self._wrap(ROOT, root=True)
        for name in SPANS:
            self._wrap(name, **hooks.get(name, {}))
        self._wrap_suites()
        return self

    def remove(self) -> None:
        for restore in reversed(self._undo):
            restore()
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, root: bool = False, before=None, after=None) -> None:
        module_name, attr = name.split(".", 1)
        module = self._module(module_name)
        fn = getattr(module, attr, None) if module is not None else None
        if not callable(fn):
            self.trace.absent.append(name)
            return
        stat = self.trace.stats.setdefault(name, Stat())
        setattr(module, attr, self._span(name, fn, stat, root, before, after))
        self._undo.append(lambda: setattr(module, attr, fn))

    def _span(self, name: str, fn, stat: Stat, root: bool, before, after):
        perf = time.perf_counter
        tracer = self

        def observe(hook, *hook_args):
            try:
                return hook(*hook_args)
            except Exception:  # a changed signature must not stop the run
                tracer.trace.unobserved.add(name)
                return None

        def wrapper(*args, **kwargs):
            if before is not None:
                args = observe(before, args) or args
            depth = tracer._depth
            direct = tracer._in_root and depth == 1
            tracer._depth = depth + 1
            if root:
                tracer._in_root = True
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                tracer._depth = depth
                if root:
                    tracer._in_root = False
                stat.calls += 1
                stat.total_s += dt
                if direct:
                    stat.direct_s += dt
            if after is not None:
                observe(after, args, out)
            return out

        return wrapper

    def _wrap_suites(self) -> None:
        validation = self._module("validation")
        suites = getattr(validation, "SUITES", None)
        if not isinstance(suites, dict):
            self.trace.absent.append("validation.SUITES")
            return
        for name, fn in list(suites.items()):
            suites[name] = self._suite(name, fn)
            self._undo.append(lambda name=name, fn=fn: suites.__setitem__(name, fn))

    def _suite(self, name: str, fn):
        trace = self.trace

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            trace.suite_s[name] = trace.suite_s.get(name, 0.0) + time.perf_counter() - t0
            dev = getattr(result, "deviation", None)
            if dev is not None:
                trace.suite_dev[name] = max(trace.suite_dev.get(name, 0.0), float(dev))
            return result

        return wrapper

    # -- observers --------------------------------------------------------

    def _observe_ei(self, args):
        x = float(args[0])
        if x < _EI_UNDERFLOW:
            regime = "ei_underflow"
        elif x < -self._cf:
            regime = "ei_cf"
        elif x > self._asym:
            regime = "ei_asym"
        else:
            regime = "ei_series"
        self.trace.count(regime)
        return args

    def _observe_cell(self, args, _out) -> None:
        """Bucket a lambda_gen cell by sampler.generated_variance's dispatch."""
        phi, schedule = args[0], args[1]
        case = getattr(phi, "case", None)
        if case not in ("one-layer", "full-width-conv"):
            return  # elementary factors have no dispatch
        eta = phi.eta * (phi.n_speedup if case == "full-width-conv" else 1)
        if 2.0 * eta * phi.tau * schedule.sigma_max**2 < self._early:
            self.trace.count("gv_early")
        elif 2.0 * eta * phi.tau * schedule.sigma_min**2 > self._late:
            self.trace.count("gv_late")
        else:
            self.trace.count("gv_ei")

    def _observe_psi(self, _args, out) -> None:
        self.trace.count("psi_cells", int(getattr(out, "size", 1)))

    def _observe_crossing(self, _args, out) -> None:
        if out is None:
            self.trace.count("no_crossing")

    def _observe_emit(self, args, out) -> None:
        self.trace.count("emit_rows", len(args[4]))
        self.trace.count("emit_bytes", (Path(args[1]) / out).stat().st_size)

    def _observe_kl(self, _args, out) -> None:
        self.trace.count("kl_clamped", int(getattr(out, "clamped", 0)))

    def _count_rhs(self, key: str):
        """Replace the integrator's right-hand side with a counting one."""
        trace = self.trace

        def before(args):
            f = args[0]

            def counted(t, y):
                trace.count(key)
                return f(t, y)

            return (counted,) + tuple(args[1:])

        return before


def layer_metrics(trace: Trace) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``.

    A metric whose wrapped names are all absent is left out; a layer the
    workload never reaches reads 0.
    """
    s, c = trace.stats, trace.counts
    out: dict[str, tuple[float, str]] = {}

    def have(*names):
        return any(n in s for n in names)

    def calls(*names):
        return sum(s[n].calls for n in names if n in s)

    def secs(*names):
        return sum(s[n].total_s for n in names if n in s)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    if have("experiment.make_covariance"):
        out["gaussian.make_covariance_s"] = (secs("experiment.make_covariance"), "s")
    if have("sampler.expint_ei"):
        n, t = calls("sampler.expint_ei"), secs("sampler.expint_ei")
        out["special.ei_calls"] = (n, "count")
        out["special.ei_s"] = (t, "s")
        out["special.ei_ns_per_call"] = (rate(t * 1e9, n), "ns")
        for regime in ("series", "cf", "asym", "underflow"):
            out[f"special.ei_{regime}_calls"] = (c.get(f"ei_{regime}", 0), "count")
    if have("experiment.generated_variance"):
        n, t = calls("experiment.generated_variance"), secs("experiment.generated_variance")
        out["sampler.gv_calls"] = (n, "count")
        out["sampler.gv_s"] = (t, "s")
        out["sampler.gv_cells_per_s"] = (rate(n, t), "1/s")
        for bucket in ("early", "late", "ei"):
            out[f"sampler.gv_{bucket}_cells"] = (c.get(f"gv_{bucket}", 0), "count")
    psi = ("experiment.one_layer_psi", "experiment.two_layer_psi")
    if have(*psi):
        out["dynamics.psi_calls"] = (calls(*psi), "count")
        out["dynamics.psi_cells"] = (c.get("psi_cells", 0), "count")
        out["dynamics.psi_s"] = (secs(*psi), "s")
    if have("experiment.emergence_time"):
        out["analysis.emergence_s"] = (secs("experiment.emergence_time"), "s")
        out["analysis.no_crossing_modes"] = (c.get("no_crossing", 0), "count")
    if have("experiment.power_law_fit"):
        out["analysis.fit_s"] = (secs("experiment.power_law_fit"), "s")
    if have("metrics.kl_shared_basis"):
        out["metrics.kl_calls"] = (calls("metrics.kl_shared_basis"), "count")
        out["metrics.kl_s"] = (secs("metrics.kl_shared_basis"), "s")
        out["metrics.kl_clamped"] = (c.get("kl_clamped", 0), "count")
    if have(ROOT):
        run_s = secs(ROOT)
        direct = sum(st.direct_s for n, st in s.items() if n != ROOT)
        out["experiment.run_s"] = (run_s, "s")
        out["experiment.self_s"] = (run_s - direct, "s")
    if have("experiment._emit_table"):
        t = secs("experiment._emit_table")
        out["experiment.emit_s"] = (t, "s")
        out["experiment.emit_rows"] = (c.get("emit_rows", 0), "count")
        out["experiment.emit_bytes"] = (c.get("emit_bytes", 0), "B")
        out["experiment.emit_rows_per_s"] = (rate(c.get("emit_rows", 0), t), "1/s")
    flows = ("experiment.gradient_flow_full", "validation.gradient_flow_full")
    if have(*flows):
        out["oracle.flow_calls"] = (calls(*flows), "count")
        out["oracle.flow_s"] = (secs(*flows), "s")
    if have("oracle.rk4_path", "oracle.rk45_path"):
        evals = c.get("rk4_rhs", 0) + c.get("rk45_rhs", 0)
        out["integrate.rk4_rhs_evals"] = (c.get("rk4_rhs", 0), "count")
        out["integrate.rk45_rhs_evals"] = (c.get("rk45_rhs", 0), "count")
        out["integrate.rk4_s"] = (secs("oracle.rk4_path"), "s")
        out["integrate.rk45_s"] = (secs("oracle.rk45_path"), "s")
        out["integrate.us_per_rhs"] = (rate(secs("oracle.rk4_path", "oracle.rk45_path") * 1e6, evals), "us")
    if "validation.SUITES" not in trace.absent:
        for suite in SUITE_NAMES:
            key = suite.replace("-", "_")
            out[f"validation.{key}_s"] = (trace.suite_s.get(suite, 0.0), "s")
            out[f"validation.{key}_dev"] = (trace.suite_dev.get(suite, 0.0), "ratio")
    return out
