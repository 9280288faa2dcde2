"""Rules on the package source itself, read from its syntax trees."""

import ast
import pathlib
import re

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



# the package sources, file name to text, each rule reads
PACKAGE = _sources(sorted((ROOT / "src" / "approxk").glob("*.py")))
MATCORE = "src/approxk/matcore.py"


def grep(package: dict, pattern: str) -> list[str]:
    """file:line of each line of the sources that pattern matches, as
    ``grep -n`` gives them."""
    return [f"{name}:{i}" for name, text in package.items()
            for i, line in enumerate(text.splitlines(), 1) if re.search(pattern, line)]


def lapack_outside_matcore(package: dict) -> list[str]:
    """The lines that name ``lapack.`` outside matcore, where the band
    kernels make every LAPACK call; a line saying so when no line names it
    at all, since the rule would then hold vacuously."""
    hits = grep(package, r"lapack\.")
    if not hits:
        return ["no line names lapack."]
    return [hit for hit in hits if not hit.startswith(f"{MATCORE}:")]


def banded_eigensolves(package: dict) -> list[str]:
    """The lines that name a banded eigensolver: band_norm bisects the top
    of each Gram band by banded Cholesky tests and takes no spectrum."""
    return grep(package, "eig_banded")


def planted(edits: dict) -> dict:
    """The package sources with each (file: (old, new)) edit made once."""
    package = dict(PACKAGE)
    for name, (old, new) in edits.items():
        assert package[name].count(old) == 1, (name, old)
        package[name] = package[name].replace(old, new)
    return package


def test_band_kernels_live_in_matcore():
    assert lapack_outside_matcore(PACKAGE) == []


def test_a_lapack_call_outside_matcore_is_refused():
    at = "def sigma_reconstruct("
    call = "h = matcore.scipy_linalg().lapack.zpbtrf(g)\n"
    package = planted({"src/approxk/boundary.py": (at, call + at)})
    hits = lapack_outside_matcore(package)
    assert [hit.split(":")[0] for hit in hits] == ["src/approxk/boundary.py"]
    bare = {name: re.sub(r"lapack\.", "lapack_", text) for name, text in PACKAGE.items()}
    assert lapack_outside_matcore(bare) == ["no line names lapack."]


def test_band_norms_take_no_spectrum():
    assert banded_eigensolves(PACKAGE) == []


def test_a_banded_eigensolver_is_refused():
    at = "def band_norm("
    solve = "top = scipy_linalg().eig_banded(gram, eigvals_only=True, select=\"i\")\n"
    package = planted({MATCORE: (at, solve + at)})
    assert [hit.split(":")[0] for hit in banded_eigensolves(package)] == [MATCORE]
