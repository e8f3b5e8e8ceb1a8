"""Tooling guards.  Every public function and method in `src/margmcmc`
has a use in `src/margmcmc` outside its own definition (code only tests
call belongs in `tests/oracles.py`); names match by spelling alone, and
only the entry point `cli.main` is exempt: a name the package exports
but never calls is still unused.  Every
field of a dataclass in `src/margmcmc` is read there as an attribute,
unless only the benchmark reads it (`BENCHMARK_FIELDS`).  Every name the
benchmark patches exists, and the fused gradients reach the traced layers
through those names.  Dirichlet and gamma variates are drawn in one
place, `stats.sample_dirichlet`.  Nothing compares a model family's
`kind`: the scenario types and model handles own what differs between
families."""

import ast
import contextlib
import importlib
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import margmcmc
from margmcmc import dawid_skene, mixture, transforms

SRC = Path(margmcmc.__file__).resolve().parent
ENTRY_POINTS = {("cli", "main")}


def loaded_names(node):
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute))
                   and isinstance(n.ctx, ast.Load))


def public_defs(tree):
    """Module-level functions and the methods of module-level classes."""
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        for item in body:
            if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")):
                yield item


def src_trees():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def unused_defs():
    trees = src_trees()
    used = sum((loaded_names(tree) for tree in trees.values()), Counter())
    return [f"{module}.{fn.name}"
            for module, tree in trees.items() for fn in public_defs(tree)
            if (module, fn.name) not in ENTRY_POINTS
            and used[fn.name] == loaded_names(fn)[fn.name]]


def test_every_public_def_is_used_in_src():
    assert unused_defs() == []


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


def unread_fields(trees):
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [f"{cls}.{field}" for tree in trees.values()
            for cls, field in dataclass_fields(tree)
            if field not in read and (cls, field) not in BENCHMARK_FIELDS]


def test_every_dataclass_field_is_read_in_src():
    trees = src_trees()
    assert unread_fields(trees) == []
    fields = {f for tree in trees.values() for f in dataclass_fields(tree)}
    assert set(BENCHMARK_FIELDS) <= fields


def call_sites(tree, names):
    """The module-level def (a method as Class.method) around each call
    of an attribute or function spelt as one of `names`."""
    for node in tree.body:
        items = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        for item in items:
            for call in ast.walk(item):
                if isinstance(call, ast.Call) and getattr(
                        call.func, "attr", getattr(call.func, "id", None)) in names:
                    yield prefix + getattr(item, "name", "<module>")


def test_one_dirichlet_draw():
    sites = [f"{module}.{site}" for module, tree in src_trees().items()
             for site in call_sites(tree, {"dirichlet", "standard_gamma"})]
    assert sites == ["stats.sample_dirichlet"]


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
    looked up at call time."""
    rng = np.random.default_rng(5)
    cases = [
        (mixture, mixture.MixtureModel(3),
         mixture.MixtureData(rng.normal(size=30)),
         ("constrain_simplex", "grad_simplex")),
        (dawid_skene, dawid_skene.DawidSkeneModel(3, 3),
         dawid_skene.DSData(rng.integers(0, 3, size=(10, 3)), 3),
         ("constrain_simplex_rows", "grad_simplex_rows")),
    ]
    for module, model, data, simplex_names in cases:
        u = rng.uniform(-1.0, 1.0, size=model.n_dim)
        with contextlib.ExitStack() as stack:
            spies = [stack.enter_context(mock.patch.object(
                owner, name, wraps=getattr(owner, name)))
                for owner, name in [(module, "lse_rows")]
                + [(transforms, n) for n in simplex_names]]
            value, _ = model.log_post_grad_u(data, u)
        assert np.isfinite(value)
        assert [spy.call_count for spy in spies] == [1, 1, 1]
