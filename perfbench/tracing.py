"""Spans around calls into each borelschur module, installed from outside.

``Tracer.install`` replaces the listed functions and methods with timing
wrappers.  A function that another module imported by name is patched in
that module's namespace too (``resolutions.column_kernel``,
``idempotents.resolve_simple``, the ``cli`` command table, ...), so every
call site goes through the wrapper.  ``uninstall`` puts the originals back.

Each span has a name, start, end, parent and job id.  Calls are also
aggregated per (job, name) into a call count, total time and self time
(duration minus the time covered by child spans); only the first
``SPAN_CAP`` spans per (job, name) are kept individually, so hot leaves
such as ``multiply_monomials`` keep trace memory bounded.

Counts that need a private table (``_products``, ``_straighten_memo``,
``_ptable``) are read with a default; when the attribute is gone the
count is not recorded and its metric is dropped, not the run.  A target
that a later refactor renames or removes is skipped the same way: its
spans read as 0 calls.
"""

import functools
import importlib
import os
from math import factorial
from time import perf_counter

# (module, qualified name) of every wrapped callable
TARGETS = (
    ("cli", "main"),
    ("cli", "cmd_basis"),
    ("cli", "cmd_verify_iso"),
    ("cli", "cmd_resolve"),
    ("cli", "cmd_transport"),
    ("cli", "cmd_check_ideals"),
    ("divided_powers", "DividedPowerAlgebra.__init__"),
    ("divided_powers", "DividedPowerAlgebra.multiply"),
    ("divided_powers", "DividedPowerAlgebra.multiply_monomials"),
    ("divided_powers", "DividedPowerAlgebra.component_basis"),
    ("divided_powers", "DividedPowerAlgebra.fill_cache"),
    ("divided_powers", "DividedPowerAlgebra.load_cache"),
    ("divided_powers", "DividedPowerAlgebra.save_cache"),
    ("arrows", "arrow_head"),
    ("arrows", "arrow_product"),
    ("arrows", "ConvexTruncation.__init__"),
    ("arrows", "ConvexTruncation.product_indices"),
    ("arrows", "ConvexTruncation.product"),
    ("arrows", "ConvexTruncation.based_at"),
    ("arrows", "BorelAlgebra.__init__"),
    ("arrows", "BorelAlgebra.product_indices"),
    ("arrows", "BorelAlgebra.product"),
    ("arrows", "BorelAlgebra.based_at"),
    ("arrows", "BorelAlgebra.reduce_element"),
    ("linalg", "Echelon.insert"),
    ("linalg", "Echelon.reduce"),
    ("linalg", "column_kernel"),
    ("linalg", "matrix_rank"),
    ("resolutions", "minimal_resolution"),
    ("resolutions", "_cover"),
    ("resolutions", "_kernel_slices"),
    ("resolutions", "GradedComplex.verify_exactness"),
    ("resolutions", "GradedComplex.verify_minimality"),
    ("resolutions", "GradedComplex.to_json"),
    ("transport", "transport_resolution"),
    ("transport", "resolve_simple"),
    ("transport", "_cover_based"),
    ("transport", "_kernel_based"),
    ("transport", "ModuleComplex.verify"),
    ("transport", "ModuleComplex.to_json"),
    ("idempotents", "chain_report"),
    ("idempotents", "close_two_sided_ideal"),
    ("idempotents", "two_idempotent_report"),
    ("idempotents", "tor_dimensions"),
    ("idempotents", "check_layer_hypotheses"),
    ("idempotents", "quotient_algebra"),
    ("tensor_space", "verify_isomorphism"),
    ("tensor_space", "TensorAction.xi"),
    ("tensor_space", "TensorAction.compose"),
    ("tensor_space", "TensorAction.operator_to_orbits"),
    ("tensor_space", "TensorAction.schur_multiply"),
    ("tensor_space", "TensorAction.based_operator"),
    ("combinatorics", "orbit_of_pair"),
    ("combinatorics", "tri_matrices_all"),
)

LAYERS = ("cli", "divided_powers", "arrows", "linalg", "resolutions",
          "transport", "idempotents", "tensor_space", "combinatorics")


# -- count probes: before(tracer, args) -> note; after(tracer, args, result, note)

def _table_hit(attr, key_of):
    def before(tracer, args):
        table = getattr(args[0], attr, None)
        return None if table is None else key_of(args) in table
    return before


def _count_hit(name):
    def after(tracer, args, result, hit):
        if hit is None:
            tracer.count(name + ".unavailable", 1)
        else:
            tracer.count(name + ".hits", int(hit))
    return after


def _note_algebra(tracer, args, result, note):
    tracer.algebras.append(args[0])


def _count_independent(tracer, args, result, note):
    tracer.count("linalg.Echelon.insert.independent", int(result is not None))


def _count_orbit(tracer, args, result, note):
    tracer.count("combinatorics.orbit_of_pair.distinct", len(result))
    tracer.count("combinatorics.orbit_of_pair.visited", factorial(len(args[0])))


def _count_cache_bytes(tracer, args, result, note):
    try:
        tracer.count("divided_powers.cache_bytes", os.path.getsize(args[1]))
    except OSError:
        pass


PROBES = {
    "DividedPowerAlgebra.__init__": (None, _note_algebra),
    "DividedPowerAlgebra.multiply_monomials": (
        _table_hit("_products", lambda a: (a[1].exps, a[2].exps)),
        _count_hit("divided_powers.multiply_monomials")),
    "DividedPowerAlgebra.load_cache": (None, _count_cache_bytes),
    "DividedPowerAlgebra.save_cache": (None, _count_cache_bytes),
    "ConvexTruncation.product_indices": (
        _table_hit("_ptable", lambda a: (a[1], a[2])),
        _count_hit("arrows.ConvexTruncation.product_indices")),
    "BorelAlgebra.product_indices": (
        _table_hit("_ptable", lambda a: (a[1], a[2])),
        _count_hit("arrows.BorelAlgebra.product_indices")),
    "Echelon.insert": (None, _count_independent),
    "orbit_of_pair": (None, _count_orbit),
}


# individual spans kept per (job, name); later calls are only aggregated
SPAN_CAP = 256


class Tracer:
    def __init__(self):
        self.stack = []     # open spans: [child time, span id]
        self.agg = {}       # job -> {name: [calls, total s, self s]}
        self.counts = {}    # job -> {name: number}
        self.spans = []     # (id, name, start, end, parent id, job)
        self.algebras = []  # DividedPowerAlgebra instances of the open job
        self.next_id = 0
        self._patched = []  # (owner, attribute or key, original, is_item)
        self.begin_job(None)

    # -- jobs and counts ------------------------------------------------

    def begin_job(self, job):
        self.job = job
        self.job_agg = self.agg.setdefault(job, {})
        self.job_counts = self.counts.setdefault(job, {})
        self.algebras = []

    def end_job(self):
        """Record the sizes of the private tables the job's algebras built."""
        for name, attr in (("divided_powers.product_table.entries", "_products"),
                           ("divided_powers.straighten_memo.entries",
                            "_straighten_memo")):
            if all(hasattr(a, attr) for a in self.algebras):
                self.count(name, sum(len(getattr(a, attr))
                                     for a in self.algebras))
            else:
                self.count(name + ".unavailable", 1)
        self.begin_job(None)

    def count(self, name, value):
        counts = self.job_counts
        counts[name] = counts.get(name, 0) + value

    def take(self):
        """Totals per name since the last take: ({name: [calls, total, self]},
        {name: count}); the aggregates are then cleared, the spans kept."""
        agg = {}
        for per_job in self.agg.values():
            for name, (calls, total, self_s) in per_job.items():
                a = agg.setdefault(name, [0, 0.0, 0.0])
                a[0] += calls
                a[1] += total
                a[2] += self_s
        counts = {}
        for per_job in self.counts.values():
            for name, value in per_job.items():
                counts[name] = counts.get(name, 0) + value
        self.agg = {}
        self.counts = {}
        self.begin_job(self.job)
        return agg, counts

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name, fn, before, after):
        tracer = self
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            note = before(tracer, args) if before is not None else None
            parent = stack[-1] if stack else None
            frame = [0.0, tracer.next_id]
            tracer.next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[0] += dur
                a = tracer.job_agg.get(name)
                if a is None:
                    a = tracer.job_agg[name] = [0, 0.0, 0.0]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[0]
                if a[0] <= SPAN_CAP:
                    tracer.spans.append((frame[1], name, start, end,
                                         parent and parent[1], tracer.job))
            if after is not None:
                after(tracer, args, result, note)
            return result

        return wrapper

    def install(self):
        modules = [importlib.import_module(f"borelschur.{m}") for m in LAYERS]
        commands = getattr(modules[LAYERS.index("cli")], "COMMANDS", {})
        for module_name, qualname in TARGETS:
            module = importlib.import_module(f"borelschur.{module_name}")
            owner = module
            parts = qualname.split(".")
            attr = parts[-1]
            try:
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                continue  # renamed or removed: its spans read as 0 calls
            before, after = PROBES.get(qualname, (None, None))
            wrapped = self._wrap(f"{module_name}.{qualname}", original,
                                 before, after)
            self._set(owner, attr, wrapped)
            if owner is module:
                # names imported into other modules, and the cli command table
                for other in modules:
                    if other is not module and getattr(other, attr, None) is original:
                        self._set(other, attr, wrapped)
                for key, value in list(commands.items()):
                    if value is original:
                        self._set_item(commands, key, wrapped)

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, value)

    def _set_item(self, table, key, value):
        self._patched.append((table, key, table[key], True))
        table[key] = value

    def uninstall(self):
        for owner, attr, original, is_item in reversed(self._patched):
            if is_item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched = []


def _ratio(num, den):
    """A ratio over zero attempts reads 0."""
    return num / den if den else 0.0


def layer_metrics(agg, counts):
    """The per-layer metrics of BENCHMARK.json from one pass's totals.

    A metric that needs a private table the program no longer has is
    left out.
    """
    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return agg.get(name, (0, 0.0, 0.0))[2]

    out = {}

    def both(name, alias=None):
        out[f"{alias or name}.calls"] = (calls(name), "count")
        out[f"{alias or name}.self_s"] = (self_s(name), "s")

    def only_self(name):
        out[f"{name}.self_s"] = (self_s(name), "s")

    for method in ("xi", "compose", "operator_to_orbits", "schur_multiply"):
        both(f"tensor_space.TensorAction.{method}")
    only_self("tensor_space.verify_isomorphism")
    both("combinatorics.orbit_of_pair")
    visited = counts.get("combinatorics.orbit_of_pair.visited", 0)
    out["combinatorics.orbit_of_pair.permutations"] = (visited, "count")
    out["combinatorics.orbit_of_pair.useful_ratio"] = (_ratio(
        counts.get("combinatorics.orbit_of_pair.distinct", 0), visited), "ratio")

    for fn in ("close_two_sided_ideal", "two_idempotent_report",
               "tor_dimensions", "check_layer_hypotheses"):
        only_self(f"idempotents.{fn}")
    for fn in ("resolve_simple", "_cover_based", "_kernel_based"):
        only_self(f"transport.{fn}")

    for cls in ("ConvexTruncation", "BorelAlgebra"):
        name = f"arrows.{cls}.product_indices"
        both(name)
        if f"{name}.unavailable" not in counts:
            out[f"{name}.hit_ratio"] = (_ratio(counts.get(f"{name}.hits", 0),
                                               calls(name)), "ratio")
    both("arrows.arrow_head")
    out["arrows.based_at.calls"] = (
        calls("arrows.ConvexTruncation.based_at")
        + calls("arrows.BorelAlgebra.based_at"), "count")
    out["arrows.based_at.self_s"] = (
        self_s("arrows.ConvexTruncation.based_at")
        + self_s("arrows.BorelAlgebra.based_at"), "s")

    both("linalg.Echelon.insert")
    out["linalg.Echelon.insert.useful_ratio"] = (_ratio(
        counts.get("linalg.Echelon.insert.independent", 0),
        calls("linalg.Echelon.insert")), "ratio")
    both("linalg.Echelon.reduce")
    both("linalg.column_kernel")
    both("linalg.matrix_rank")

    for fn in ("minimal_resolution", "_cover", "_kernel_slices",
               "GradedComplex.verify_exactness"):
        only_self(f"resolutions.{fn}")
    for fn in ("transport_resolution", "ModuleComplex.verify"):
        only_self(f"transport.{fn}")

    for fn in ("multiply", "multiply_monomials"):
        both(f"divided_powers.DividedPowerAlgebra.{fn}", f"divided_powers.{fn}")
    name = "divided_powers.multiply_monomials"
    if f"{name}.unavailable" not in counts:
        out["divided_powers.product_table.hit_ratio"] = (_ratio(
            counts.get(f"{name}.hits", 0),
            calls(f"divided_powers.DividedPowerAlgebra.multiply_monomials")),
            "ratio")
    for table in ("product_table", "straighten_memo"):
        key = f"divided_powers.{table}.entries"
        if f"{key}.unavailable" not in counts:
            out[key] = (counts.get(key, 0), "count")
    for fn in ("load_cache", "save_cache"):
        out[f"divided_powers.{fn}.self_s"] = (
            self_s(f"divided_powers.DividedPowerAlgebra.{fn}"), "s")
    out["divided_powers.cache_bytes"] = (
        counts.get("divided_powers.cache_bytes", 0), "bytes")

    only_self("cli.main")

    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (
            sum(a[2] for name, a in agg.items()
                if name.split(".", 1)[0] == layer), "s")
    return out
