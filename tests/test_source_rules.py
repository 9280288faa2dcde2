"""Rules on the package source itself, each checked on the tree and against
violations planted in copies of it: a line rule greps each line, a call rule
walks each module's syntax tree, parsed once.  Run this module to check them."""

import ast
import functools
import pathlib
import re

import pytest

import approxk

ROOT = pathlib.Path(__file__).resolve().parent.parent
PKG = approxk.__name__

# public names that nothing outside the tests refers to, kept on purpose
NO_CALLER_NEEDED = {
    "k0_product": "the K_0 x K_0 product class of p (x) q, kept for an even "
                  "product check over the loop carrier",
    "discretize_homotopy": "the dense reference that tests/test_direct_sums.py "
                           "compares the banded path kernels against",
}


@functools.cache
def parse(text: str) -> ast.Module:
    return ast.parse(text)


def _free_loads(node, bound=frozenset()):
    """The names node loads that no def or lambda around the load binds, by
    a parameter or a store anywhere in it."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        a = node.args
        bound = bound | {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                         if p} | {n.id for n in ast.walk(node)
                                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from _free_loads(child, bound)


@functools.cache
def _references(file: str, text: str) -> set:
    """(where, module, name) for each reference of a source to a name of a
    module: an attribute of an imported module, a load of a name imported
    from a module, and any other free load, to the source's own module.
    where is the file and the line of the top-level statement holding it."""
    tree, modules, imported = parse(text), {}, {}
    for node in ast.walk(tree):
        for alias in node.names if isinstance(node, (ast.Import, ast.ImportFrom)) else ():
            if isinstance(node, ast.Import):
                bound = alias.asname or alias.name.split(".")[0]
                modules[bound] = alias.name if alias.asname else bound
            else:
                bound = alias.asname or alias.name
                modules[bound] = f"{node.module or ''}.{alias.name}".lstrip(".")
                imported[bound] = (node.module or PKG, alias.name)

    def module_of(x):
        if isinstance(x, ast.Attribute) and (base := module_of(x.value)):
            return f"{base}.{x.attr}"
        return modules.get(x.id) if isinstance(x, ast.Name) else None

    refs = set()
    for stmt in tree.body:
        where = f"{file}:{stmt.lineno}"
        refs.update((where, m, node.attr) for node in ast.walk(stmt)
                    if isinstance(node, ast.Attribute) and (m := module_of(node.value)))
        refs.update((where, *imported.get(name, (pathlib.Path(file).stem, name)))
                    for name in _free_loads(stmt))
    return {(where, m.removeprefix(f"{PKG}."), name) for where, m, name in refs}


def unreferenced(package: dict, users: dict, required=()) -> set:
    """The public module-level defs and classes of the package sources, and
    the required names, that no package or user source refers to outside
    their own definition.  A reference to f of module m is m.f or pkg.f, a
    load of f in m that no def binds, or a load of f where a source imports
    it from m or pkg.  package and users map file names to source text."""
    refs = {}
    for f, text in {**package, **users}.items():
        for where, module, name in _references(f, text):
            refs.setdefault(name, set()).add((module, where))
    missing = {stmt.name for f, text in package.items() for stmt in parse(text).body
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
               and not stmt.name.startswith("_")
               and not any(module in (pathlib.Path(f).stem, PKG) and where != f"{f}:{stmt.lineno}"
                           for module, where in refs.get(stmt.name, ()))}
    return missing | {name for name in required if name not in refs}


def _sources(paths) -> dict:
    return {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in paths}


# the package sources, file name to text, that the rules read; the demos and
# perfbench count as callers of public names
PACKAGE = _sources(sorted((ROOT / "src" / PKG).glob("*.py")))
USERS = _sources(sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")))


def src(module: str) -> str:
    return f"src/{PKG}/{module}.py"


BOUNDARY, CLI, KPROD, LOOPS, MATCORE = map(src, ("boundary", "cli", "kprod", "loops", "matcore"))


def grep(package: dict, pattern: str, *modules: str) -> list[str]:
    """file:line:text of each line of the sources, or of the named modules
    only, that pattern matches, as ``grep -n`` gives them."""
    files = {src(m): package[src(m)] for m in modules} if modules else package
    return [f"{name}:{i}:{line}" for name, text in files.items()
            for i, line in enumerate(text.splitlines(), 1) if re.search(pattern, line)]


def only(hits: list, *wanted: str) -> list:
    """[] when the hits are one match of each wanted pattern, in order;
    otherwise the hits, or a line saying there are none."""
    if len(hits) == len(wanted) and all(map(re.match, wanted, hits)):
        return []
    return hits or ["no line matches"]


def _callee(call: ast.Call):
    return getattr(call.func, "attr", None) or getattr(call.func, "id", None)


@functools.cache
def _scoped_calls(text: str) -> list:
    """(scope, call) for each call of a source, scope the tuple of the
    classes and defs around it."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                found.append((scope, child))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
            visit(child, scope + (child.name,) if named else scope)

    visit(parse(text), ())
    return found


def refused_calls(package: dict, names, allowed, *modules: str) -> list[str]:
    """file:line of each call of one of names in the sources, or in the named
    modules only, that allowed(file, scope, call) refuses."""
    return [f"{f}:{call.lineno} {_callee(call)} in {'.'.join(scope)}"
            for f in [src(m) for m in modules] or list(package)
            for scope, call in _scoped_calls(package[f])
            if _callee(call) in names and not allowed(f, scope, call)]


def one_guarded_inverse(package):
    return only(grep(package, r"np.linalg.inv\("), f"{MATCORE}:")


def decomposes_once(package):
    return only(grep(package, r"\bdecompose\("), rf"{src('subalg')}:\d+: *return decompose\(self\)",
                rf"{src('wedderburn')}:\d+:def decompose\(") + grep(package, r"\bunitize\(")


# the defs that may take a Hermitian spectrum or a Cholesky factor, by file
SPECTRA = {"eigvalsh": {("matcore.py", ("op_norms",)), ("boundary.py", ("check_contraction",)),
                        ("cli.py", ("sweep_invcut",))},
           "cholesky": {("matcore.py", ("sup_norm",))}}


def _norm_allowed(f, scope, call) -> bool:
    name = _callee(call)
    if name in SPECTRA:
        return (f.rsplit("/", 1)[-1], scope) in SPECTRA[name]
    if name == "norm":  # refused: a linalg.norm of ord 2, by position or keyword
        ords = call.args[1:2] + [k.value for k in call.keywords if k.arg == "ord"]
        return (getattr(getattr(call.func, "value", None), "attr", None) != "linalg"
                or not any(isinstance(o, ast.Constant) and o.value == 2 for o in ords)
                or (f == CLI and scope[:1] != () and scope[0].startswith("sweep_")))
    # refused: a max with no axis over a call of op_norms, outside matcore
    return (f == MATCORE or any(k.arg == "axis" for k in call.keywords)
            or all(_callee(n) != "op_norms" for n in ast.walk(call) if isinstance(n, ast.Call)))


def one_norm_kernel(package):
    return (refused_calls(package, ("norm", "eigvalsh", "cholesky", "max", "amax"), _norm_allowed)
            + only(grep(package, r"compute_uv=False\)\["), f"{MATCORE}:"))


def lapack_outside_matcore(package):
    hits = grep(package, r"lapack\.")
    return [hit for hit in hits if not hit.startswith(f"{MATCORE}:")] if hits else ["no lapack."]


def frame_stays_banded(package):
    return grep(package, r"matcore\.band\(|band_dense\(", "boundary") + refused_calls(
        package, ("band_scatter",), lambda f, scope, call: (
            len(scope) == 2 and scope[0] == "SigmaReconstruct"), "boundary")


def cap_once_per_pair(package):
    return grep(package, "intersect_sides|int_side") + refused_calls(
        package, ("intersect",), lambda f, scope, call: (
            not isinstance(call.func, ast.Attribute) or scope[:1] == ("Pair",)
            or scope in {("MatrixSide", "intersect"), ("LoopSide", "intersect")}),
        "boundary", "kprod", "cli", "scenarios")


def one_tol_per_pair(package):
    classes = {n.name: n for n in parse(package[BOUNDARY]).body if isinstance(n, ast.ClassDef)}
    fields = [f"{c}.tol" for c in ("LiftCert", "IdealCert") for st in classes[c].body
              if isinstance(st, ast.AnnAssign) and getattr(st.target, "id", None) == "tol"]
    methods = [f"{c}.{fn.name}" for c in ("MatrixSide", "LoopSide") for fn in classes[c].body
               if isinstance(fn, ast.FunctionDef) and fn.name != "__init__" and "tol" in
               [a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]]
    return grep(package, r"\bcert\.tol\b") + fields + methods


def cli_compares_no_budget(package):
    bad = []
    for fn in parse(package[CLI]).body:
        for node in ast.walk(fn) if isinstance(fn, ast.FunctionDef) else ():
            if isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops):
                number = any(isinstance(x, ast.Constant) and isinstance(x.value, (int, float))
                             for x in [node.left, *node.comparators])
                if fn.name.startswith("check_") or (fn.name == "sweep_uniformity" and number):
                    bad.append(f"{CLI}:{node.lineno} {fn.name} {ast.unparse(node)}")
    return bad


def public_names_have_a_caller(package):
    package = {f: text for f, text in package.items() if not f.endswith("__init__.py")}
    return sorted(unreferenced(package, USERS, approxk.__all__) ^ set(NO_CALLER_NEEDED))


def absent(pattern: str, *modules: str):
    """The rule that no line of the sources, or of the named modules only,
    matches pattern."""
    return lambda package: grep(package, pattern, *modules)


# (id, rule, plants): each rule, with its reason, and the violations it must
# refuse, each a (file, old, new) edit of every occurrence of old
RULES = [
    # every inverse goes through matcore.invert: its kernel holds the only call
    ("one-guarded-inverse", one_guarded_inverse, [
        (KPROD, "    pbar = ", "    u_inv = np.linalg.inv(u)\n    pbar = ")]),
    # Subalg.wedderburn holds the one call of decompose, Subalg.unitization
    # replaces the free unitize, and a tensored algebra derives its data
    ("each-algebra-decomposes-once", decomposes_once, [
        (KPROD, "kron(p, q), w, tol)", "kron(p, q), decompose(w.alg), tol)"),
        (src("subalg"), "\ndef intersect(", "\ndef unitize(s):\n    pass\n\n\ndef intersect(")]),
    # every operator norm goes through matcore.op_norms, whose fallback holds
    # the one top singular value read off a values-only SVD, and every sup of
    # them outside matcore through sup_norm, whose certificate is the one
    # Cholesky.  The only 2-norms make cli.py's sweep inputs; the only other
    # eigvalsh take Hermitian spectra (check_contraction's and sweep_invcut's)
    ("operator-norms-go-through-one-kernel", one_norm_kernel, [
        (KPROD, "op_norm(mat @ mat - mat)", "np.linalg.norm(mat @ mat - mat, 2)"),
        (BOUNDARY, "    p = ops.arr(b)\n",
         "    p = ops.arr(b)\n    top = float(np.max(matcore.op_norms(p)))\n"),
        (LOOPS, "    off = e.samples[~mask]\n", "    off = np.linalg.cholesky(e.samples[~mask])\n"),
        (BOUNDARY, "compute_uv=False).sum(axis=(-2, -1))", "compute_uv=False)[..., 0]")]),
    # every LAPACK call is made by matcore's band kernels, and some line makes
    # one, or the rule would hold vacuously
    ("band-kernels-live-in-matcore", lapack_outside_matcore, [
        (BOUNDARY, "\ndef sigma_reconstruct(",
         "\nh = matcore.scipy_linalg().lapack.zpbtrf(g)\ndef sigma_reconstruct("),
        (MATCORE, "scipy_linalg().lapack.", "scipy_linalg().lapack_")]),
    # matcore.band_norm bisects the top of each Gram band by banded Cholesky
    # tests: no banded eigensolver is called anywhere
    ("band-norms-take-no-spectrum", absent("eig_banded"), [
        (MATCORE, "\ndef band_norm(", "\ntop = scipy_linalg().eig_banded(gram)\ndef band_norm(")]),
    # sigma_reconstruct projects y on the blocks of its band and returns that
    # band: no dense frame is banded again, no band is made dense, and only a
    # SigmaReconstruct method scatters y, when x or y is first read
    ("the-sigma-frame-stays-banded", frame_stays_banded, [
        (BOUNDARY, "_band_project(pair.inter, mid, n)",
         "_band_project(pair.inter, matcore.band(band_dense(mid), 9, 9), n)"),
        (BOUNDARY, "    x = y + one\n",
         "    x = y + one\n    dense = matcore.band_scatter(x, np.arange(size))\n")]),
    # matcore.band_invert returns a Band from windowed solves, with its
    # residual: no dense inverse from zgbtrs, and no identity subtracted on a
    # dense diagonal
    ("the-band-inverse-stays-banded", lambda package: (
        grep(package, "zgbtrs") + grep(package, re.escape("diag, diag]"), "boundary")), [
        (MATCORE, "zgbtrf = scipy_linalg().lapack.zgbtrf", "zgbtrf = scipy_linalg().lapack.zgbtrs"),
        (BOUNDARY, "    eye_ab[x.ku] = 1.0\n", "    eye_ab[..., diag, diag] -= 1.0\n")]),
    # matcore.band_invert forms R = x X - 1 to decide when to stop widening
    # and returns it with X; sigma_reconstruct gates on that R
    ("the-sigma-residual-is-formed-once", absent(re.escape("band_matmul(moved"), "boundary"), [
        (BOUNDARY, "    _, resid = matcore.band_invert(moved, tol)\n",
         "    inv, _ = matcore.band_invert(moved, tol)\n"
         "    resid = matcore.band_matmul(moved, inv) - one\n")]),
    # a caller that needs only the witness calls project, which takes no
    # residual; nearest is for callers that read the residual
    ("no-discarded-membership-residual", absent(r", *_ *= *.*nearest\(|nearest\(.*\)\[0\]"), [
        (BOUNDARY, "    x = y + one\n", "    x, _ = pair.c.nearest(y + one)\n"),
        (BOUNDARY, "    x = y + one\n", "    x = pair.c.nearest(y + one)[0]\n")]),
    # what is derived from an object is held by that object (Subalg's
    # Wedderburn data, a lift's class), never in a memo keyed by id()
    ("derived-data-lives-on-its-owner", absent(r"\bid\("), [
        (KPROD, "pair2 = cert.pair.tensor(m)", "pair2 = _TENSORED[id(cert.pair), m]")]),
    # boundary.Pair takes C cap D once and holds its tensored pairs, whose
    # C cap D is the base's tensored: outside the sides' own intersect
    # methods, only Pair calls an intersect
    ("cap-is-taken-once-per-pair", cap_once_per_pair, [
        (KPROD, "int(pair2.intersection_gap)", "pair2.c.intersect(pair2.d).alg.dim"),
        (BOUNDARY, "self.c.intersect(self.d).alg.dim", "intersect_sides(self).alg.dim")]),
    # boundary.Pair carries the one Tol of everything built over it: its sides
    # are built at pair.tol and their methods take none, and a certificate
    # reads cert.pair.tol, holding no Tol field of its own
    ("one-tol-per-pair", one_tol_per_pair, [
        (KPROD, "rank(p, cert.pair.tol)", "rank(p, cert.tol)"),
        (BOUNDARY, "    aug_diff: int\n", "    aug_diff: int\n    tol: Tol\n"),
        (BOUNDARY, "    def k1(self, u) -> tuple:", "    def k1(self, u, tol=None) -> tuple:")]),
    # the package holds nothing that only the tests reached; the tests keep
    # what they need of it: the retraction-path walk, the dense band, a
    # check's own pair, the non-unital class check, rounding into a span, the
    # algebra of a list of matrices and LoopElem's forwarders to ops
    ("code-only-the-tests-reach-stays-out", lambda package: grep(
        package, "path_to_similarity|def _moved|band_dense|_pair_for|nonunital_class_check|"
                 r"round_idempotent_in|round_invertible_in|_eps_max|NotCloseEnough|def from_basis")
        + grep(package, r"def (adj|inv|eye_like)\(self", "loops"), [
        (MATCORE, "\ndef band_norm(", "\ndef band_dense(b):\n    pass\n\n\ndef band_norm("),
        (LOOPS, "    def __matmul__(", "    def adj(self):\n        pass\n\n    def __matmul__(")]),
    # funcalc.riesz_idempotent takes chi(e) by Newton-Schulz steps on every
    # input, defective ones included: no eigendecomposition, no ordered Schur
    # form and Sylvester solve, and no exception for them
    ("riesz-rounding-takes-one-path", absent(
        r"linalg\.eig\(|schur|solve_sylvester|DefectiveMatrix|SpectralAmbiguity|_chi_by_"), [
        (src("funcalc"), "    f = e.copy()\n", "    f = matcore.scipy_linalg().schur(e)[0]\n")]),
    # every pass/fail is a certificate's gates (matcore.Gate): no <, <=, > or
    # >= in cli.py's check_* functions, and none against a number in
    # sweep_uniformity, whose other rows compare one sup with the last
    ("the-cli-compares-no-certificate-against-a-budget", cli_compares_no_budget, [
        (CLI, "all(g.holds for g in rep.gates(limit))", "rep.ratio_sup <= limit"),
        (CLI, "all(g.holds for g in rep.gates(3.0))", "rep.ratio_sup <= 3.0")]),
    # every public module-level def and class has a caller in the package, the
    # demos or perfbench, but for NO_CALLER_NEEDED; a local or a field of
    # another module that shares its name is no caller
    ("public-names-have-a-caller", public_names_have_a_caller, [
        (src("ops"), "\ndef eye_like(", "\ndef adj(x):\n    pass\n\n\ndef eye_like("),
        (MATCORE, "\ndef band_norm(", "\ndef band(a, kl, ku):\n    pass\n\n\ndef band_norm(")]),
]


def planted(file: str, old: str, new: str) -> dict:
    """The package sources with every occurrence of old in file made new."""
    assert old in PACKAGE[file], (file, old)
    return {**PACKAGE, file: PACKAGE[file].replace(old, new)}


@pytest.mark.parametrize("rule", [pytest.param(rule, id=name) for name, rule, _ in RULES])
def test_source_rule_holds(rule):
    assert rule(PACKAGE) == []


@pytest.mark.parametrize("rule, plant", [pytest.param(rule, plant, id=f"{name}-{i}")
                                         for name, rule, plants in RULES
                                         for i, plant in enumerate(plants)])
def test_source_rule_refuses_its_plant(rule, plant):
    assert rule(planted(*plant)) != []


def test_a_public_def_without_a_caller_is_refused():
    package = {"mod.py": (
        "def used(x):\n    return x\n\n\n"
        "def lonely(x):\n    return lonely(x - 1) if x else used(x)\n\n\n"
        "class _Private:\n    pass\n"
    )}
    users = {"demo.py": "import mod\n\nmod.used(1)\n"}
    assert unreferenced(package, users) == {"lonely"}
    assert unreferenced(package, users, ["exported"]) == {"lonely", "exported"}
    # a parameter, an attribute of a value and another module's own name
    # share the spelling only
    package["other.py"] = "def _twice(lonely, x):\n    return x.lonely + lonely\n"
    users["demo.py"] += "lonely = mod.used\nlonely(2)\n"
    assert unreferenced(package, users) == {"lonely"}
    users["demo.py"] += "from mod import lonely as alone\nalone(2)\n"
    assert unreferenced(package, users) == set()
