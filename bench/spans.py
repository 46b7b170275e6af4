"""Span tracing from outside the package.

Each public function is wrapped at the name its caller looks up (for example
``caustica.cli.quad_contour`` or ``caustica.saddle.derive``).  A wrapper
opens a span whose parent is the innermost open span, and on close adds the
span's time to its parent's child time; self time is span time minus child
time.  Spans are aggregated as they close, so memory stays constant however
many rows a sweep has.
"""

from __future__ import annotations

import dataclasses
import time

import caustica.asym1d as asym1d
import caustica.asymnd as asymnd
import caustica.cli as cli
import caustica.saddle as saddle

_AIRY_ASYMPTOTIC = 6.0  # airy.py switches from series to asymptotics above this
_DERIVE = "integrand.derive"

# (object whose attribute the caller looks up, attribute, span name)
TARGETS = [
    (saddle, "derive", _DERIVE),
    (saddle, "derive_nd", _DERIVE),
    (asym1d, "derive", _DERIVE),
    (cli, "find_saddle", "saddle.find_saddle"),
    (saddle, "find_saddle", "saddle.find_saddle"),
    (cli, "find_partner", "saddle.find_partner"),
    (saddle, "find_partner", "saddle.find_partner"),
    (cli, "find_caustic", "saddle.find_caustic"),
    (saddle, "find_caustic", "saddle.find_caustic"),
    (cli, "find_saddle_nd", "saddle.find_saddle_nd"),
    (saddle.CausticInfo, "z_tilde_at", "saddle.z_tilde_at"),
    (cli, "approx_wkb", "asym1d.wkb"),
    (asym1d, "approx_wkb", "asym1d.wkb"),
    (cli, "approx_tilde", "asym1d.tilde"),
    (asym1d, "approx_tilde", "asym1d.tilde"),
    (cli, "approx_saddle_form", "asym1d.saddle"),
    (asym1d, "approx_saddle_form", "asym1d.saddle"),
    (cli, "approx_cfu", "asym1d.cfu"),
    (asym1d, "approx_cfu", "asym1d.cfu"),
    (asymnd, "approx_wkb_nd", "asymnd.wkb-nd"),
    (asymnd, "approx_corrected_nd", "asymnd.corrected-nd"),
    (asym1d, "airy_ai_scaled", "airy.airy_ai_scaled"),
    (asym1d, "recovery_factor", "airy.recovery_factor"),
    (asymnd, "airy_ai_scaled", "airy.airy_ai_scaled"),
    (cli, "quad_contour", "oracle.quad_contour"),
    (cli, "cubature_nd", "oracle.cubature_nd"),
]

ROOT = "cli.sweep"


@dataclasses.dataclass
class Stat:
    calls: int = 0
    entries: int = 0  # calls whose parent span is in another layer
    self_s: float = 0.0
    total_s: float = 0.0
    units: int = 0  # iterations, evaluations or asymptotic Airy arguments


def _iterations(args, result):
    return result.iterations


def _evaluations(args, result):
    return result.evaluations


def _asymptotic(args, result):
    return args[0] > _AIRY_ASYMPTOTIC


_UNITS = {
    "saddle.find_saddle": _iterations,
    "saddle.find_saddle_nd": _iterations,
    "oracle.quad_contour": _evaluations,
    "oracle.cubature_nd": _evaluations,
    "airy.airy_ai_scaled": _asymptotic,
    "airy.recovery_factor": _asymptotic,
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.f_evals = 0  # integrand evaluations inside derivative spans
        self._stack = [[None, None, 0.0]]  # open spans: [name, layer, child time]
        self._saved = []

    def reset(self) -> None:
        self.stats = {}
        self.f_evals = 0

    def wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        units = _UNITS.get(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[2] += dur
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = Stat()
                st.calls += 1
                st.entries += parent[1] != layer
                st.self_s += dur - frame[2]
                st.total_s += dur
            if units is not None:
                st.units += units(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every target with its wrapper, and wrap the integrand
        registry lookup so that integrand evaluations made inside
        derivative spans count."""
        self._saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in TARGETS]
        self._saved.append((cli, "registry_get", cli.registry_get))
        for obj, attr, name in TARGETS:
            setattr(obj, attr, self.wrap(name, getattr(obj, attr)))
        registry_get = cli.registry_get

        def counted_registry_get(*args, **kwargs):
            return self.count_evals(registry_get(*args, **kwargs))

        cli.registry_get = counted_registry_get

    def uninstall(self) -> None:
        """Put back every function that install replaced."""
        for obj, attr, fn in self._saved:
            setattr(obj, attr, fn)

    def count_evals(self, intg):
        """The same integrand, with f (or F) counting calls made from a
        derivative span."""
        attr = "F" if hasattr(intg, "F") else "f"
        fn = getattr(intg, attr)
        stack = self._stack

        def counted(*args):
            if stack[-1][0] == _DERIVE:
                self.f_evals += 1
            return fn(*args)

        return dataclasses.replace(intg, **{attr: counted})

    def layer_metrics(self) -> dict[str, float]:
        """Per-sweep metrics from the spans recorded since the last reset."""
        st = self.stats
        get = lambda name: st.get(name, Stat())  # noqa: E731
        out = {}
        airy = [get("airy.airy_ai_scaled"), get("airy.recovery_factor")]
        entries = sum(s.entries for s in airy)
        out["airy.calls"] = entries
        out["airy.self_s"] = sum(s.self_s for s in airy)
        # entries and asymptotic counts both come from calls made outside
        # the airy layer: recovery_factor's inner call is not wrapped
        out["airy.asym_frac"] = sum(s.units for s in airy) / entries if entries else 0.0
        d = get(_DERIVE)
        out["integrand.derive.calls"] = d.calls
        out["integrand.derive.self_s"] = d.self_s
        out["integrand.f_evals"] = self.f_evals
        out["integrand.f_evals_per_derive"] = self.f_evals / d.calls if d.calls else 0.0
        for fn in ("find_saddle", "find_partner", "z_tilde_at", "find_caustic", "find_saddle_nd"):
            s = get(f"saddle.{fn}")
            out[f"saddle.{fn}.calls"] = s.calls
            out[f"saddle.{fn}.self_s"] = s.self_s
        for fn in ("find_saddle", "find_saddle_nd"):
            s = get(f"saddle.{fn}")
            out[f"saddle.{fn}.iters_mean"] = s.units / s.calls if s.calls else 0.0
        for name in ("asym1d.wkb", "asym1d.tilde", "asym1d.saddle", "asym1d.cfu",
                     "asymnd.wkb-nd", "asymnd.corrected-nd"):
            s = get(name)
            out[f"{name}.calls"] = s.calls
            out[f"{name}.self_s"] = s.self_s
        evals = busy = 0.0
        for fn in ("quad_contour", "cubature_nd"):
            s = get(f"oracle.{fn}")
            out[f"oracle.{fn}.calls"] = s.calls
            out[f"oracle.{fn}.self_s"] = s.self_s
            out[f"oracle.{fn}.evals"] = s.units
            out[f"oracle.{fn}.evals_per_call"] = s.units / s.calls if s.calls else 0.0
            evals += s.units
            busy += s.total_s
        out["oracle.evals_per_s"] = evals / busy if busy else 0.0
        root = get(ROOT)
        out["cli.sweep_s"] = root.total_s
        out["cli.self_s"] = root.self_s
        return out
