"""Tooling guard: every public function and method in `src/margmcmc` has
a use in `src/margmcmc` outside its own definition (code only tests call
belongs in `tests/oracles.py`).  Names match by spelling alone; the
package's `__all__` and the entry point `cli.main` are exempt."""

import ast
from collections import Counter
from pathlib import Path

import margmcmc

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


def unused_defs():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    used = sum((loaded_names(tree) for tree in trees.values()), Counter())
    return [f"{module}.{fn.name}"
            for module, tree in trees.items() for fn in public_defs(tree)
            if fn.name not in margmcmc.__all__ and (module, fn.name) not in ENTRY_POINTS
            and used[fn.name] == loaded_names(fn)[fn.name]]


def test_every_public_def_is_used_in_src():
    assert unused_defs() == []
