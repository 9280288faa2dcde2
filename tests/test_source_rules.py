"""Rules on the package source itself, read from its syntax trees."""

import ast
import pathlib

import approxk

ROOT = pathlib.Path(__file__).resolve().parent.parent

# public names that nothing outside the tests refers to, kept on purpose
NO_CALLER_NEEDED = {
    "k0_product": "the K_0 x K_0 product class of p (x) q, kept for an even "
                  "product check over the loop carrier",
    "discretize_homotopy": "the dense reference that tests/test_direct_sums.py "
                           "compares the banded path kernels against",
}


def _referenced(tree: ast.Module, owner: str) -> set[tuple[str, str]]:
    """(owner, name) for each Name or Attribute of each top-level statement
    of tree, owner naming the file and the statement's line, so that a
    definition's own body does not count as a reference to it."""
    refs = set()
    for stmt in tree.body:
        where = f"{owner}:{stmt.lineno}"
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                refs.add((where, node.id))
            elif isinstance(node, ast.Attribute):
                refs.add((where, node.attr))
    return refs


def unreferenced(package: dict, users: dict, required=()) -> set:
    """The public module-level defs and classes of the package sources, and
    the required names, that no top-level statement of a package or user
    source refers to by a Name or an Attribute, other than their own
    definition.  package and users map file names to source text."""
    trees = {name: ast.parse(text) for name, text in {**package, **users}.items()}
    defined = {}
    for name in package:
        for stmt in trees[name].body:
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                defined.setdefault(stmt.name, set()).add(f"{name}:{stmt.lineno}")
    for name in required:
        defined.setdefault(name, set())
    refs = set().union(*(_referenced(tree, name) for name, tree in trees.items()))
    called = {ref for where, ref in refs if where not in defined.get(ref, ())}
    return set(defined) - called


def _sources(paths) -> dict:
    return {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in paths}


def test_public_names_have_a_caller():
    package = _sources(p for p in sorted((ROOT / "src" / "approxk").glob("*.py"))
                       if p.name != "__init__.py")
    users = _sources(sorted((ROOT / "demos").glob("*.py"))
                     + sorted((ROOT / "perfbench").glob("*.py")))
    missing = unreferenced(package, users, approxk.__all__)
    assert missing == set(NO_CALLER_NEEDED), sorted(missing ^ set(NO_CALLER_NEEDED))


def test_a_public_def_without_a_caller_is_refused():
    package = {"mod.py": (
        "def used(x):\n    return x\n\n\n"
        "def lonely(x):\n    return lonely(x - 1) if x else used(x)\n\n\n"
        "class _Private:\n    pass\n"
    )}
    users = {"demo.py": "import mod\n\nmod.used(1)\n"}
    assert unreferenced(package, users) == {"lonely"}
    assert unreferenced(package, users, ["exported"]) == {"lonely", "exported"}
    users["demo.py"] += "mod.lonely(2)\n"
    assert unreferenced(package, users) == set()

