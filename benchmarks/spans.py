"""Per-layer split measured from outside mvmlab.

The modules import each other's functions by name (`from .terms import
satisfies`), so a wrapper set on one module would miss calls made through the
others.  `Tracer.install` therefore replaces every attribute of every loaded
`mvmlab.*` module that is bound to a listed function, and `uninstall` puts
the originals back.  The lru_cache'd `varieties.tau` / `tau_alt` recursions
are deliberately not listed: a wrapper there would count cache hits as calls
and deepen the recursion the membership probes already exhaust.
"""

import collections
import functools
import sys
import time

LAYERS = {
    "terms": ("satisfies", "satisfies_all", "satisfies_quasi"),
    "axioms": ("is_mv_monoid", "is_positive_mv", "si_necessary_condition"),
    "enumeration": ("enumerate_chain",),
    "congruences": ("principal_congruence", "congruence_join",
                    "congruence_lattice", "monolith", "is_congruence"),
    "algebra": ("make_algebra", "canonical_key", "are_isomorphic"),
    "constructions": ("product", "subalgebras", "quotient"),
    "morphisms": ("hs_closure", "si_poset"),
    "varieties": ("member_of_variety", "phi", "sigma", "classify_variety"),
    "posets": ("downset_lattice",),
    "cli": ("run",),
}

SPANS = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Call count, total and self time of each listed function, plus the
    counters the derived metrics need.  Self time is a span's duration minus
    the part covered by its child spans."""

    def __init__(self):
        self._originals = {id(getattr(sys.modules[f"mvmlab.{mod}"], fn)):
                           f"{mod}.{fn}"
                           for mod, fns in LAYERS.items() for fn in fns}
        self._patched = []
        self._stack = []  # one [child time] frame per open span
        self._active = collections.Counter()  # open spans by name
        self.reset()

    def reset(self):
        self.calls = collections.Counter()
        self.total = collections.Counter()
        self.self_time = collections.Counter()
        self.counts = collections.Counter()

    def _observe(self, name, result):
        c = self.counts
        if name == "enumeration.enumerate_chain":
            c["emitted"] += len(result)
        elif name == "algebra.make_algebra":
            if self._active["enumeration.enumerate_chain"]:
                c["enum_make_algebra"] += 1
        elif name == "axioms.is_mv_monoid":
            c["mvm_passed"] += bool(result)
        elif name == "terms.satisfies":
            c["satisfies_failed"] += not result
        elif name == "congruences.congruence_lattice":
            c["lattice_size"] += len(result)
        elif name == "morphisms.hs_closure":
            c["hs_classes"] += len(result)

    def _wrap(self, name, fn):
        stack, active = self._stack, self._active

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                active[name] -= 1
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[0]
            self._observe(name, result)
            return result

        return span

    def install(self):
        wrappers = {}
        for modname, mod in list(sys.modules.items()):
            if modname != "mvmlab" and not modname.startswith("mvmlab."):
                continue
            for attr, value in list(vars(mod).items()):
                name = self._originals.get(id(value))
                if name is None:
                    continue
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, value)
                setattr(mod, attr, wrappers[name])
                self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in self._patched:
            setattr(mod, attr, value)
        self._patched = []

    def snapshot(self):
        """(counts, times) of everything recorded since the last reset."""
        c = self.counts
        counts = {}
        times = {}
        for name in SPANS:
            counts[f"{name}.calls"] = self.calls[name]
            times[f"{name}.total_s"] = self.total[name]
            times[f"{name}.self_s"] = self.self_time[name]
        counts.update({
            "enumeration.emitted": c["emitted"],
            "enumeration.yield": _ratio(c["emitted"], c["enum_make_algebra"]),
            "axioms.is_mv_monoid.pass_frac":
                _ratio(c["mvm_passed"], self.calls["axioms.is_mv_monoid"]),
            "terms.satisfies.fail_frac":
                _ratio(c["satisfies_failed"], self.calls["terms.satisfies"]),
            "congruences.congruence_lattice.size": c["lattice_size"],
            "morphisms.hs_closure.classes": c["hs_classes"],
        })
        return counts, times
