"""Tooling guards.  Every public function and method in `src/margmcmc`
has a use in `src/margmcmc` outside its own definition (code only tests
call belongs in `tests/oracles.py`).  A module-level function's uses
are its loads resolved to its module: a bare name in that module, a
name bound by `from .m import f`, or `x.f` with `x` bound by
`from . import m as x`; a method's uses match by spelling alone.  Only
the entry point `cli.main` is exempt: a name the package exports but
never calls is still unused.  Every field of a dataclass in
`src/margmcmc` is read there as an attribute, or by its class through
`fields(self)`, unless only the benchmark reads it
(`BENCHMARK_FIELDS`).  Every name the benchmark patches exists, and the
fused gradients reach the traced layers through those names.  Dirichlet
and gamma variates are drawn in one place, `stats.sample_dirichlet`, a
point is constrained in one place per model, its fused gradient, and
chains are run and timed in one place, `harness.run_chain`, and started
in one place, `harness.start_chain`, which `benchmark/ab.py` shares and
which leaves `run_chain` no test of a state's type.  A generator is built
in one place, `stats.make_rng`, and rewound in one place,
`gibbs._Uniforms.close`, which one Gibbs chain frame calls once a sweep;
no Gibbs sweep draws a uniform one `random()` call at a time.
Nothing compares a model family's `kind`: the scenario types and model
handles own what differs between families.  Nothing in `src/margmcmc`
imports scipy, which only the tests and the benchmark use as a
reference: the program's runtime is numpy and Python's `math`."""

import ast
import contextlib
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import margmcmc
from margmcmc import dawid_skene, mixture, transforms
from margmcmc.harness import run_chain
from margmcmc.simulate import gen_dataset, get_scenario
from margmcmc.stats import make_rng

SRC = Path(margmcmc.__file__).resolve().parent
ENTRY_POINTS = {("cli", "main")}


def loaded_names(node):
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute))
                   and isinstance(n.ctx, ast.Load))


def public_defs(tree):
    """Module-level functions and the methods of module-level classes,
    each with whether it is a method."""
    for node in tree.body:
        method = isinstance(node, ast.ClassDef)
        for item in node.body if method else [node]:
            if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")):
                yield item, method


def src_trees():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def function_loads(node, module, tree):
    """Counter of (module, function) for the loads under `node`, a part
    of `module`'s `tree`, that resolve to a module-level function."""
    names = {item.name: (module, item.name) for item in tree.body
             if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
    modules = {}
    for imp in ast.walk(tree):
        if isinstance(imp, ast.ImportFrom) and imp.level == 1:
            for alias in imp.names:
                bound = alias.asname or alias.name
                if imp.module is None:
                    modules[bound] = alias.name
                else:
                    names[bound] = (imp.module, alias.name)
    loads = Counter()
    for n in ast.walk(node):
        if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                and n.id in names):
            loads[names[n.id]] += 1
        elif (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
              and isinstance(n.value, ast.Name) and n.value.id in modules):
            loads[modules[n.value.id], n.attr] += 1
    return loads


def unused_defs(trees):
    spelt = sum((loaded_names(tree) for tree in trees.values()), Counter())
    resolved = sum((function_loads(tree, module, tree)
                    for module, tree in trees.items()), Counter())
    unused = []
    for module, tree in trees.items():
        for fn, method in public_defs(tree):
            if method:
                used, own = spelt[fn.name], loaded_names(fn)[fn.name]
            else:
                key = (module, fn.name)
                used = resolved[key]
                own = function_loads(fn, module, tree)[key]
            if used == own and (module, fn.name) not in ENTRY_POINTS:
                unused.append(f"{module}.{fn.name}")
    return unused


def test_guard_resolves_functions_through_imports():
    # `a.log_prior` hides behind the method `M.log_prior` by spelling
    a = "def log_prior(p):\n    return p\n\ndef used(p):\n    return p\n"
    b = ("from . import a as x\nfrom .a import used as u\n\n"
         "class M:\n    def log_prior(self):\n        return u(0)\n\n"
         "    def run(self):\n        return self.log_prior()\n\n"
         "def _main():\n    return M().run()\n")
    trees = {"a": ast.parse(a), "b": ast.parse(b)}
    assert unused_defs(trees) == ["a.log_prior"]
    trees["b"] = ast.parse(b + "\ny = x.log_prior(1)\n")
    assert unused_defs(trees) == []


def test_every_public_def_is_used_in_src():
    assert unused_defs(src_trees()) == []


# Dataclass fields that nothing in `src/` reads but the benchmark does,
# as (class, field) -> reader.
BENCHMARK_FIELDS = {
    ("ChainDraws", "tree_depths"):
        "perfbench/gate.py hashes the NUTS tree depths with the draws",
}


def dataclass_fields(tree):
    """(class, field) for every annotated field of a module-level
    `@dataclass` or `@dataclass(...)` class."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        names = {getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
                 for d in node.decorator_list}
        if "dataclass" not in names:
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign):
                yield node.name, item.target.id


def reads_own_fields(cls):
    """Whether the class node `cls` calls `fields(self)`, which reads
    every field of the instance (`BenchRecord.row`)."""
    return any(isinstance(n, ast.Call) and getattr(n.func, "id", None)
               == "fields" and [getattr(a, "id", None) for a in n.args]
               == ["self"] for n in ast.walk(cls))


def unread_fields(trees, exempt=BENCHMARK_FIELDS):
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    read_all = {node.name for tree in trees.values() for node in tree.body
                if isinstance(node, ast.ClassDef) and reads_own_fields(node)}
    return [f"{cls}.{field}" for tree in trees.values()
            for cls, field in dataclass_fields(tree)
            if field not in read and cls not in read_all
            and (cls, field) not in exempt]


def test_benchmark_field_exemption_is_needed():
    # each exempt field is unread in src/ without its exemption
    assert unread_fields(src_trees(), exempt=set()) == [
        f"{cls}.{field}" for cls, field in BENCHMARK_FIELDS]


def test_every_dataclass_field_is_read_in_src():
    trees = src_trees()
    assert unread_fields(trees) == []
    fields = {f for tree in trees.values() for f in dataclass_fields(tree)}
    assert set(BENCHMARK_FIELDS) <= fields


def module_defs(tree):
    """Each module-level def (a method as Class.method) with its node."""
    for node in tree.body:
        items = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        for item in items:
            yield prefix + getattr(item, "name", "<module>"), item


def call_sites(tree, names):
    """The module-level def around each call of an attribute or function
    spelt as one of `names`."""
    for site, item in module_defs(tree):
        for call in ast.walk(item):
            if isinstance(call, ast.Call) and getattr(
                    call.func, "attr", getattr(call.func, "id", None)) in names:
                yield site


def load_sites(tree, names):
    """The module-level def around any load of a name or attribute spelt
    as one of `names`."""
    return [site for site, item in module_defs(tree)
            if loaded_names(item).keys() & names]


def test_one_dirichlet_draw():
    sites = [f"{module}.{site}" for module, tree in src_trees().items()
             for site in call_sites(tree, {"dirichlet", "standard_gamma"})]
    assert sites == ["stats.sample_dirichlet"]


def test_one_generator_rewind():
    # slice moves take their uniforms in blocks from one stream per chain,
    # and only that stream hands unused values back to the generator
    sites = [f"{module}.{site}" for module, tree in src_trees().items()
             for site in call_sites(tree, {"advance"})]
    assert sites == ["gibbs._Uniforms.close"]


def test_one_generator_constructor():
    # every chain's and dataset's stream is keyed in one place
    sites = {f"{module}.{site}" for module, tree in src_trees().items()
             for site in call_sites(tree, {"Generator", "PCG64",
                                           "SeedSequence", "default_rng"})}
    assert sites == {"stats.make_rng"}


def test_one_stream_close():
    # both Gibbs chain classes end a sweep through their common frame
    sites = [f"{module}.{site}" for module, tree in src_trees().items()
             for site in call_sites(tree, {"close"})]
    assert sites == ["gibbs._GibbsChain.sweep"]


class NoScalarRandom:
    """A chain generator that forwards every attribute but refuses a
    one-at-a-time `random()`."""

    def __init__(self, rng):
        self._rng = rng

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def random(self, *args, **kwargs):
        if not args and not kwargs:
            raise AssertionError("a scalar random() call on a chain generator")
        return self._rng.random(*args, **kwargs)


@pytest.mark.parametrize("scenario_id", ["two-comp-1", "three-comp-4", "ds"])
def test_gibbs_sweeps_draw_no_scalar_uniform(scenario_id):
    scenario = get_scenario(scenario_id)
    model, (data, _) = scenario.model(), gen_dataset(scenario, 1, 7)
    for method in model.methods:
        if method.startswith("gibbs"):
            chain = run_chain(model, data, method, 1, 0,
                              NoScalarRandom(make_rng(7)))
            assert np.isfinite(chain.draws).all()


def test_one_chain_loop():
    # every arm's chain is run, timed and error-scoped in one place
    sites = {f"{module}.{site}" for module, tree in src_trees().items()
             for site in call_sites(tree, {"perf_counter", "errstate"})}
    assert sites == {"harness.run_chain"}


def test_one_chain_start():
    # every arm's chain state is built in one place, which the A/B tool
    # shares with the harness
    sites = {f"{module}.{site}" for module, tree in src_trees().items()
             for site in load_sites(tree, {"NutsChain", "_STATE_CLASS"})}
    assert sites == {"harness.start_chain"}


def test_run_chain_reads_no_state_type():
    (fn,) = [node for node in src_trees()["harness"].body
             if getattr(node, "name", None) == "run_chain"]
    assert "isinstance" not in loaded_names(fn)


def test_ab_tool_reads_only_the_harness_chain_start():
    tree = ast.parse((SRC.parents[1] / "benchmark" / "ab.py").read_text())
    read = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
            and getattr(n.value, "id", None) == "harness"}
    assert read == {"start_chain"}


def test_one_forward_simplex_pass_per_model():
    # the samplers read the parameters the fused gradient returns
    sites = [f"{module}.{site}" for module, tree in src_trees().items()
             for site in call_sites(tree, {"constrain_simplex",
                                           "constrain_simplex_rows"})]
    assert sites == ["dawid_skene.DawidSkeneModel.log_post_grad_u",
                     "mixture.MixtureModel.log_post_grad_u"]


def is_kind(node):
    """`x.kind`, `x["kind"]` or `x.get("kind")`."""
    if isinstance(node, ast.Attribute):
        return node.attr == "kind"
    if isinstance(node, ast.Subscript):
        return getattr(node.slice, "value", None) == "kind"
    return (isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "get" and node.args
            and getattr(node.args[0], "value", None) == "kind")


def kind_comparisons(tree):
    """Line numbers of comparisons with a `kind` operand."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and any(map(is_kind, [node.left] + node.comparators))]


def test_guard_finds_kind_comparisons():
    tree = ast.parse('a = s.kind == "mixture"\nb = "x" != h["kind"]\n'
                     'c = h.get("kind") in KINDS\nd = s.kind\n'
                     'e = TYPES[h["kind"]]\n')
    assert kind_comparisons(tree) == [1, 2, 3]


def test_no_kind_comparison_in_src():
    found = {module: lines for module, tree in src_trees().items()
             if (lines := kind_comparisons(tree))}
    assert found == {}


# Names the benchmark (`perfbench/meter.py`, `perfbench/tracing.py`)
# replaces from outside `src/`, as (module, dotted attribute).  A refactor
# that drops one breaks only a traced benchmark run, so it is kept here.
BENCHMARK_HOOKS = [
    ("harness", "run_record"), ("harness", "run_chain"),
    ("harness", "gen_dataset"), ("harness", "efficiency_report"),
    ("nuts", "_NutsKernel.transition"), ("nuts", "find_reasonable_step_size"),
    ("mixture", "MixtureModel.log_post_grad_u"),
    ("dawid_skene", "DawidSkeneModel.log_post_grad_u"),
    ("gibbs", "_MixtureGibbs.sweep"), ("gibbs", "_DawidSkeneGibbs.sweep"),
    ("gibbs", "slice_sample_1d"), ("gibbs", "update_z_block"),
    ("gibbs", "update_pi_conjugate"), ("gibbs", "update_theta_conjugate"),
    ("transforms", "constrain_simplex"), ("transforms", "grad_simplex"),
    ("transforms", "constrain_simplex_rows"),
    ("transforms", "grad_simplex_rows"),
    ("mixture", "lse_rows"), ("gibbs", "lse_rows"),
    ("dawid_skene", "lse_rows"),
]


@pytest.mark.parametrize("module,name", BENCHMARK_HOOKS,
                         ids=[f"{m}.{n}" for m, n in BENCHMARK_HOOKS])
def test_benchmark_hook_exists(module, name):
    owner = importlib.import_module(f"margmcmc.{module}")
    for part in name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_fused_gradients_call_each_traced_layer_once():
    """The per-layer trace divides by these calls: one log-sum-exp and
    one simplex constrain and pull-back per gradient evaluation, each
    looked up at call time.  The third returned value is the handle's
    parameters."""
    rng = np.random.default_rng(5)
    cases = [
        (mixture, mixture.MixtureModel(3),
         mixture.MixtureData(rng.normal(size=30)),
         ("constrain_simplex", "grad_simplex"), mixture.MixtureParams),
        (dawid_skene, dawid_skene.DawidSkeneModel(3, 3),
         dawid_skene.DSData(rng.integers(0, 3, size=(10, 3)), 3),
         ("constrain_simplex_rows", "grad_simplex_rows"),
         dawid_skene.DSParams),
    ]
    for module, model, data, simplex_names, params_type in cases:
        u = rng.uniform(-1.0, 1.0, size=model.n_dim)
        with contextlib.ExitStack() as stack:
            spies = [stack.enter_context(mock.patch.object(
                owner, name, wraps=getattr(owner, name)))
                for owner, name in [(module, "lse_rows")]
                + [(transforms, n) for n in simplex_names]]
            value, _, params = model.log_post_grad_u(data, u)
        assert np.isfinite(value)
        assert type(params) is params_type
        assert [spy.call_count for spy in spies] == [1, 1, 1]


def imported_modules(tree):
    """The top-level package of every absolute import in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_guard_finds_scipy_imports():
    tree = ast.parse("import scipy.special\nfrom scipy import stats\n"
                     "from . import stats\nimport numpy as np\n")
    assert list(imported_modules(tree)) == ["scipy", "scipy", "numpy"]


def test_no_scipy_import_in_src():
    found = [module for module, tree in src_trees().items()
             if "scipy" in imported_modules(tree)]
    assert found == []


def test_cli_import_loads_no_scipy():
    code = ("import sys, margmcmc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "[]"
