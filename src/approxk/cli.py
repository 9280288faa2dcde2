"""Scenario-driven command-line harness.

Scenarios are JSON files (schema 1, angles in units of pi, complex entries as
[re, im] pairs) or names of the bundled configurations.  Reports are JSON,
sweeps are CSV; both are deterministic for a fixed seed so they diff cleanly.
Exit status: 0 all checks pass, 1 at least one check fails, 2 bad input.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from importlib import resources

import numpy as np

from . import __version__, boundary, funcalc, kprod, matcore, scenarios
from .errors import ApproxKError
from .matcore import Tol

BUNDLED = ("twisted_pair", "circle_split", "block_pair")

SCHEMA_VERSION = 1


class SchemaError(Exception):
    pass


# the largest circle_split a scenario or --grid may ask for: grid samples,
# and grid * fiber^2 sample entries; at grid 2^16 and fiber 1 the bundled
# circle_split report takes about 2 s and 380 MB
MAX_LOOP_ENTRIES = 2 ** 16


def _number(table: dict, key: str, default, kind=float, minimum=None):
    """table[key], or the default, as a finite float (kind=float) or an int
    (kind=int) no smaller than minimum; SchemaError on any other value."""
    val = table.get(key, default)
    what = "an integer" if kind is int else "a finite number"
    if (isinstance(val, bool) or not isinstance(val, (int, kind))
            or not math.isfinite(val)
            or (minimum is not None and val < minimum)):
        at_least = "" if minimum is None else f" >= {minimum}"
        raise SchemaError(f"{key} must be {what}{at_least}, got {val!r}")
    return kind(val)


# ---------------------------------------------------------------------------
# scenario loading


def _load_scenario_text(name_or_path: str) -> str:
    if os.path.exists(name_or_path):
        try:
            with open(name_or_path, "r", encoding="utf-8") as fh:
                return fh.read()
        except (OSError, UnicodeDecodeError) as err:
            raise SchemaError(f"cannot read scenario {name_or_path!r}: {err}") from err
    stem = name_or_path.removesuffix(".json")
    if stem in BUNDLED:
        ref = resources.files("approxk").joinpath(f"data/{stem}.json")
        return ref.read_text(encoding="utf-8")
    raise SchemaError(
        f"scenario {name_or_path!r} is neither a file nor one of {BUNDLED}"
    )


def load_scenario(name_or_path: str, grid_override: int | None = None) -> dict:
    """Parse and validate a scenario description."""
    try:
        raw = json.loads(_load_scenario_text(name_or_path))
    except json.JSONDecodeError as err:
        raise SchemaError(f"invalid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise SchemaError("scenario must be a JSON object")
    if raw.get("schema") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {raw.get('schema')!r}")
    kind = raw.get("kind")
    if kind not in ("twisted_pair", "circle_split", "block_pair"):
        raise SchemaError(f"unknown scenario kind {kind!r}")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("params must be an object")
    checks = raw.get("checks", [])
    if not isinstance(checks, list) or not all(
        isinstance(c, dict) and isinstance(c.get("check"), str) for c in checks
    ):
        raise SchemaError("checks must be a list of objects with a string 'check' key")
    if grid_override is not None:
        params = dict(params, grid=grid_override)
    return {
        "name": raw.get("name", kind),
        # the scenario as the user named it: a bundled name or a path
        "given": name_or_path,
        "kind": kind,
        "params": params,
        "checks": checks,
        "seed": _number(raw, "seed", 0, int, minimum=0),
    }


def build_scenario(desc: dict):
    """Instantiate the concrete algebras and elements for a description.

    scn["name"] is the scenarios module's name, which the checks dispatch
    on; scn["given"] is the scenario as the user named it, which their
    error messages name."""
    kind = desc["kind"]
    p = desc["params"]
    if kind == "twisted_pair":
        angle = _number(p, "angle_pi", 0.2) * np.pi
        conj = None
        if p.get("conj_seed") is not None:
            rng = np.random.default_rng(_number(p, "conj_seed", None, int,
                                                minimum=0))
            conj = scenarios.random_unitary(4, rng)
        scn = scenarios.twisted_pair(angle=angle, conj=conj)
    elif kind == "circle_split":
        grid, fiber = _number(p, "grid", 720, int), _number(p, "fiber", 1, int)
        if grid > MAX_LOOP_ENTRIES or grid * fiber ** 2 > MAX_LOOP_ENTRIES:
            raise SchemaError(f"circle_split grid {grid} with fiber {fiber} exceeds the "
                              f"limit grid <= {MAX_LOOP_ENTRIES} and grid * fiber^2 <= "
                              f"{MAX_LOOP_ENTRIES}")
        scn = scenarios.circle_split(
            grid=grid,
            fiber=fiber,
            winding=_number(p, "winding", 1, int),
            overlap=_number(p, "overlap_pi", 0.1) * np.pi,
        )
    else:
        scn = scenarios.block_ideal_pair()
        h = np.zeros((6, 6), dtype=complex)
        h[:2, :2] = np.eye(2)
        h[2:4, 2:4] = _number(p, "h_middle", 0.5) * np.eye(2)
        scn["h"] = h
        scn["x_basis"] = [np.eye(6, dtype=complex)]
    scn["given"] = desc.get("given", kind)
    return scn


# ---------------------------------------------------------------------------
# individual checks


def _lift_for(scn: dict, seed: int):
    """The scenario's lift certificate, built on first use and kept in scn.

    run_checks builds scn for one report, whose seed is fixed, so every
    check of the report reads the same lift, over the report's pair.
    A scenario with neither an idempotent pair nor a unitary u has no lift:
    SchemaError.
    """
    if "lift" not in scn:
        pair = scn["pair"]
        if scn["name"] == "twisted_pair":
            _, _, scn["lift"] = boundary.iota_lift(scn["p"], scn["q"], pair, seed=seed)
        elif "u" in scn:
            _, scn["lift"] = boundary.build_lift_v(scn["u"], scn["h"], pair)
        else:
            raise SchemaError(f"scenario {scn['given']} has no lift")
    return scn["lift"]


def check_ideal_structure(scn: dict, seed: int, params: dict) -> dict:
    if "h" not in scn:
        raise SchemaError(f"scenario {scn['given']} has no multiplier h")
    cert = boundary.check_delta_ideal_structure(
        scn["h"], scn["pair"], None, scn["x_basis"], seed=seed
    )
    level = cert.delta_level
    budget = _number(params, "delta", 1e-6)
    return {
        "check": "check-ideal-structure",
        "measured": [float(m) for m in cert.measured],
        "delta_level": level,
        "delta_budget": budget,
        "passed": cert.valid_at(budget),
    }


def check_boundary(scn: dict, seed: int, params: dict) -> dict:
    expected = params.get("expect")
    if expected is not None and not (isinstance(expected, list) and all(
            isinstance(a, int) and not isinstance(a, bool) for a in expected)):
        raise SchemaError(f"expect must be a list of integers, got {expected!r}")
    cert = _lift_for(scn, seed)
    cls = cert.boundary_class
    inv_cls = boundary.inverse_lift(cert).boundary_class
    negated = tuple(-a for a in cls.entries)
    ok = inv_cls.entries == negated
    if expected is not None:
        ok = ok and list(cls.entries) == list(expected)
    return {
        "check": "boundary",
        "class": list(cls.entries),
        "inverse_class": list(inv_cls.entries),
        "blocks": [list(b) for b in cls.blocks],
        "passed": bool(ok),
    }


def check_iota_lift(scn: dict, seed: int, params: dict) -> dict:
    if scn["name"] != "twisted_pair":
        raise SchemaError("iota-lift runs on idempotent-pair scenarios")
    cert = _lift_for(scn, seed)
    budget = _number(params, "delta", 1e-9)
    return {
        "check": "iota-lift",
        "residual_c": cert.residual_c,
        "residual_d": cert.residual_d,
        "residual_int": cert.residual_int,
        "aug_diff": cert.aug_diff,
        "norm_bound": cert.c,
        "passed": cert.valid_at(budget),
    }


def check_sigma_witness(scn: dict, seed: int, params: dict) -> dict:
    cert = _lift_for(scn, seed)
    eps = _number(params, "eps", 0.05)
    wit = boundary.sigma_witness(cert, eps, seed=seed)
    rec = {
        "check": "sigma-witness",
        "eps": eps,
        "residual_d": wit.residual_d,
        "residual_c": wit.residual_c,
        "offdiag": wit.offdiag,
        "passed": all(g.holds for g in wit.gates(eps)),
    }
    wu, wx, wf = wit.windings
    if wx:
        rec["windings"] = {"x": wx[0], "factor": wf[0], "u": wu[0]}
    return rec


def check_whitehead(scn: dict, seed: int, params: dict) -> dict:
    if "h" not in scn:
        raise SchemaError(f"scenario {scn['given']} has no multiplier h")
    a = scn.get("u_c", scn.get("u"))
    if a is None:
        one = np.eye(scn["c"].ambient_dim, dtype=complex)
        x = scn["c"].project(np.diag(np.linspace(0.1, 0.3, scn["c"].ambient_dim)))
        a = one + x
    cert = boundary.whitehead_split(a, scn["h"], scn["pair"])
    eps = _number(params, "eps", 0.1)
    return {
        "check": "whitehead",
        "t_steps": cert.t_steps,
        "product_residual": cert.product_residual,
        "endpoint_residual": cert.endpoint_residual,
        "membership_c": cert.membership_c,
        "membership_d": cert.membership_d,
        "norm_max": cert.norm_max,
        "norm_bound": cert.norm_bound,
        "norm_upper": cert.norm_upper,
        "membership_c_upper": cert.membership_c_upper,
        "membership_d_upper": cert.membership_d_upper,
        "passed": all(g.holds for g in cert.gates(eps)),
    }


def check_uniformity(scn: dict, seed: int, params: dict) -> dict:
    count = _number(params, "samples", 50, int, minimum=1)
    rep = boundary.uniformity_probe(scn["pair"], sample_count=count, seed=seed)
    limit = _number(params, "ratio_max", 3.0)
    return {
        "check": "uniformity",
        "samples": len(rep.ratios),
        "b_dims": list(rep.b_dims),
        "ratio_sup": rep.ratio_sup,
        "ratio_max": limit,
        "passed": all(g.holds for g in rep.gates(limit)),
    }


def check_product(scn: dict, seed: int, params: dict) -> dict:
    if scn["name"] != "twisted_pair":
        raise SchemaError("product-check runs on matrix-carrier scenarios")
    cert = _lift_for(scn, seed)
    reps = {
        "zero": np.zeros((2, 2), dtype=complex),
        "rank1": np.diag([1.0, 0.0]).astype(complex),
        "full": np.eye(2, dtype=complex),
    }
    rows = []
    gates = []
    for label, p in reps.items():
        pc = kprod.boundary_product_check(cert, p, 2)
        rows.append({
            "p": label,
            "lhs": list(pc.lhs_entries),
            "rhs": list(pc.rhs_entries),
            "equal": pc.equal,
            "intersection_gap": pc.intersection_gap,
        })
        gates += pc.gates()
    return {"check": "product-check", "rows": rows, "passed": all(g.holds for g in gates)}


CHECKS = {
    "check-ideal-structure": check_ideal_structure,
    "boundary": check_boundary,
    "iota-lift": check_iota_lift,
    "sigma-witness": check_sigma_witness,
    "whitehead": check_whitehead,
    "uniformity": check_uniformity,
    "product-check": check_product,
}


def run_checks(desc: dict, check_names, tol: Tol, seed: int) -> dict:
    if not check_names:
        # a report of no checks would pass without measuring anything
        given = desc.get("given", desc["name"])
        raise SchemaError(f"scenario {given!r} declares no checks")
    scn = build_scenario(desc)
    # one pair per report: every check reads one C cap D, one tensored pair
    # per m and the report's Tol
    scn["pair"] = boundary.Pair(scn["c"], scn["d"], tol)
    records = []
    for item in check_names:
        name = item["check"]
        if name not in CHECKS:
            raise SchemaError(f"unknown check {name!r}")
        params = {k: v for k, v in item.items() if k != "check"}
        try:
            rec = CHECKS[name](scn, seed, params)
        except ApproxKError as err:
            rec = {
                "check": name,
                "error": type(err).__name__,
                "detail": str(err),
                "passed": False,
            }
        records.append(rec)
    return {
        "schema": SCHEMA_VERSION,
        "name": desc["name"],
        "version": __version__,
        "seed": seed,
        "checks": records,
        "passed": all(r["passed"] for r in records),
    }


# ---------------------------------------------------------------------------
# sweeps


def sweep_riesz(count: int, seed: int, tol: Tol):
    rng = np.random.default_rng(seed)
    header = ["index", "n", "delta", "c", "distance", "bound", "passed"]
    rows = []
    idx = 0
    while idx < count:
        n = int(rng.integers(2, 7))
        lam = rng.integers(0, 2, n).astype(complex)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        s = np.eye(n) + 0.5 * g / np.linalg.norm(g, 2)
        e0 = s @ np.diag(lam) @ matcore.invert(s, tol)
        pert = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        target = 10 ** rng.uniform(-6, -2)
        e = e0 + pert / np.linalg.norm(pert, 2) * 0.3 * target
        delta = float(np.linalg.norm(e @ e - e, 2))
        if not 1e-8 < delta < funcalc.DELTA_MAX or np.linalg.norm(e, 2) > 5:
            continue
        _, cert = funcalc.riesz_idempotent(e)
        rows.append([idx, n, cert.delta, cert.c, cert.distance, cert.bound,
                     cert.passed])
        idx += 1
    return header, rows


def sweep_invcut(count: int, seed: int, tol: Tol):
    rng = np.random.default_rng(seed)
    header = ["index", "n", "delta_comm", "measured", "bound", "passed"]
    rows = []
    for idx in range(count):
        n = int(rng.integers(2, 6))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u = np.eye(n) + 0.4 * g / np.linalg.norm(g, 2)
        h = np.diag(rng.uniform(0.0, 1.0, n)).astype(complex)
        pert = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        pert = (pert + pert.conj().T) / 2
        h = h + 2e-3 * pert / np.linalg.norm(pert, 2)
        w = np.linalg.eigvalsh(h)
        if w.min() < 0 or w.max() > 1:
            h = np.clip(np.diag(h).real, 0, 1).astype(complex)
            h = np.diag(h)
        measured, bound = boundary.check_inv_cut(u, h)
        y = u - np.eye(n)
        z = matcore.invert(u, tol) - np.eye(n)
        dcomm = max(np.linalg.norm(h @ w2 - w2 @ h, 2)
                    for w2 in (y, z))
        rows.append([idx, n, dcomm, measured, bound,
                     measured <= bound + 1e-12])
    return header, rows


def sweep_uniformity(count: int, seed: int, tol: Tol):
    header = ["index", "family", "param", "ratio_sup", "passed"]
    rows = []
    blk = scenarios.block_ideal_pair()
    rep = boundary.uniformity_probe(blk["c"], blk["d"], sample_count=count,
                                    seed=seed, tol=tol)
    rows.append([0, "block_ideal_pair", 0.0, rep.ratio_sup,
                 all(g.holds for g in rep.gates(3.0))])
    prev = 0.0
    for idx, theta in enumerate((0.3, 0.1, 0.03), start=1):
        scn = scenarios.hereditary_pair(theta)
        rep = boundary.uniformity_probe(scn["c"], scn["d"],
                                        sample_count=max(count // 2, 10),
                                        seed=seed, tol=tol)
        rows.append([idx, "hereditary_pair", theta, rep.ratio_sup,
                     rep.ratio_sup > prev])
        prev = rep.ratio_sup
    return header, rows


SWEEPS = {
    "riesz": sweep_riesz,
    "invcut": sweep_invcut,
    "uniformity": sweep_uniformity,
}


# ---------------------------------------------------------------------------
# output plumbing


def _fmt_cell(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12e}"
    return str(x)


def emit(payload, fmt: str, out: str | None) -> None:
    if fmt == "json":
        if isinstance(payload, tuple):
            header, rows = payload
            payload = {"header": header,
                       "rows": [[_json_cell(c) for c in r] for r in rows]}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        if isinstance(payload, dict):
            raise SchemaError("csv output is only available for sweeps")
        header, rows = payload
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(c) for c in row])
        text = buf.getvalue()
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_cell(c):
    if isinstance(c, (bool, int, str)):
        return c
    return float(c)


# ---------------------------------------------------------------------------
# argument parsing


def _base_tol(args) -> Tol:
    env = os.environ.get("APPROXK_TOL")
    mem = 1e-9
    if env is not None:
        try:
            mem = float(env)
        except ValueError as err:
            raise SchemaError(f"APPROXK_TOL={env!r} is not a float") from err
    if args.tol is not None:
        mem = args.tol
    return Tol(membership_tol=mem)


def _add_common(sub):
    sub.add_argument("--tol", type=float, default=None,
                     help="membership tolerance (overrides APPROXK_TOL)")
    sub.add_argument("--seed", type=int, default=None,
                     help="seed override for randomized steps")
    sub.add_argument("--grid", type=int, default=None,
                     help="grid-size override for loop scenarios")
    sub.add_argument("--out", default=None, help="output file (default stdout)")
    sub.add_argument("--format", choices=("json", "csv"), default=None,
                     dest="fmt", help="output format")


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parsing reads it and
    never changes it."""
    parser = argparse.ArgumentParser(
        prog="approxk",
        description="numerical checks for approximate boundary classes",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="run a scenario's declared check list")
    run_p.add_argument("scenario")
    _add_common(run_p)

    sweep_p = subs.add_parser("sweep", help="randomized quantitative sweeps")
    sweep_p.add_argument("kind", choices=sorted(SWEEPS))
    sweep_p.add_argument("--count", type=int, default=200)
    _add_common(sweep_p)

    for name in CHECKS:
        sub = subs.add_parser(name, help=f"run the {name} check")
        sub.add_argument("scenario")
        if name == "sigma-witness":
            sub.add_argument("--eps", type=float, default=0.05)
        if name == "uniformity":
            sub.add_argument("--samples", type=int, default=50)
        _add_common(sub)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        tol = _base_tol(args)
        if args.seed is not None and args.seed < 0:
            raise SchemaError(f"--seed must be >= 0, got {args.seed}")
        if args.command == "sweep":
            fmt = args.fmt or "csv"
            seed = args.seed if args.seed is not None else 0
            if args.count < 1:
                raise SchemaError(f"--count must be >= 1, got {args.count}")
            header, rows = SWEEPS[args.kind](args.count, seed, tol)
            emit((header, rows), fmt, args.out)
            return 0 if all(r[-1] for r in rows) else 1
        fmt = args.fmt or "json"
        desc = load_scenario(args.scenario, grid_override=args.grid)
        seed = args.seed if args.seed is not None else desc["seed"]
        if args.command == "run":
            checks = desc["checks"]
        else:
            item = {"check": args.command}
            if args.command == "sigma-witness":
                item["eps"] = args.eps
            if args.command == "uniformity":
                item["samples"] = args.samples
            checks = [item]
        report = run_checks(desc, checks, tol, seed)
        emit(report, fmt, args.out)
        return 0 if report["passed"] else 1
    except SchemaError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ApproxKError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
