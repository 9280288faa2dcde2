"""A standing fuzzer for the command line.

Derandomized hypothesis strategies mutate one leaf of a bundled scenario
file, or the options of a single-check command, and run the result through
``cli.main`` in process.  Every run exits 0, 1 or 2 and lets no exception
escape, and every exit 2 writes one stderr line that starts with "error:".
A non-finite number in place of a number of a scenario, or as the value of
a float option, is bad input, so it exits 2.  The commands are ones that
argparse parses: its own usage errors exit 2 through SystemExit before
``main`` reads anything.  The numbers the fuzzer plants are 0, negative or
huge, so a size is either refused by ``cli.MAX_LOOP_ENTRIES`` or
``cli.MAX_DRAW_ENTRIES`` or small.
"""

import contextlib
import copy
import io
import json
import math
import pathlib
import tempfile
from importlib import resources

from hypothesis import given, settings
from hypothesis import strategies as st

from approxk import cli

FUZZ = settings(deadline=None, derandomize=True, database=None)

BUNDLED = {name: json.loads(resources.files("approxk").joinpath(f"data/{name}.json")
                            .read_text(encoding="utf-8")) for name in cli.BUNDLED}

NON_FINITE = [math.nan, math.inf, -math.inf]
# values of another type, non-finite, zero, negative and huge numbers
VALUES = [None, True, "x", "boundary", [], {}, {"check": "boundary"}, [1, -1],
          *NON_FINITE, 0, -1, -2.5, 2 ** 70, 1e300]
# keys that the scenario grammar reads, and one that it does not
KEYS = ["extra", "schema", "kind", "name", "seed", "params", "checks", "check", "grid",
        "fiber", "winding", "overlap_pi", "angle_pi", "conj_seed", "h_middle", "delta",
        "eps", "samples", "ratio_max", "expect"]


def paths(doc, at=()):
    """The path of every value inside doc, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(
        doc, list) else ()
    for key, val in items:
        yield at + (key,)
        yield from paths(val, at + (key,))


def run(argv) -> tuple[int, str, str]:
    """cli.main(argv) in process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code: int, err: str) -> None:
    assert code in (0, 1, 2), code
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err


@st.composite
def mutated_scenarios(draw):
    """(document, planted): a bundled scenario with one leaf replaced,
    deleted, wrapped in a list or given a new key; planted is True when a
    number of the file was replaced by a non-finite one."""
    doc = copy.deepcopy(BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))])
    how = draw(st.sampled_from(["replace", "delete", "wrap", "insert"]))
    if how == "insert":
        where = draw(st.sampled_from([()] + [p for p in paths(doc)
                                             if isinstance(value_at(doc, p), dict)]))
        value_at(doc, where)[draw(st.sampled_from(KEYS))] = draw(st.sampled_from(VALUES))
        return doc, False
    path = draw(st.sampled_from(list(paths(doc))))
    parent, key = value_at(doc, path[:-1]), path[-1]
    old = parent[key]
    if how == "delete":
        del parent[key]
        return doc, False
    parent[key] = [old] if how == "wrap" else draw(st.sampled_from(VALUES))
    number = isinstance(old, (int, float)) and not isinstance(old, bool)
    return doc, number and how == "replace" and parent[key] in NON_FINITE


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@settings(FUZZ, max_examples=250)
@given(case=mutated_scenarios())
def test_mutated_scenarios_exit_cleanly(case):
    doc, planted = case
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "scenario.json")
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(["run", str(path)])
    assert_clean_exit(code, err)
    assert code == 2 or not planted, (doc, code)


INTS = ["0", "-1", str(2 ** 70)]
FLOATS = ["nan", "inf", "-inf", "0", "-1", "1e300"]


@st.composite
def single_check_argv(draw):
    """(argv, planted): a single-check command on a bundled scenario with
    some of its options set to 0, negative, huge or non-finite values;
    planted is True when a float option is not finite."""
    check = draw(st.sampled_from(sorted(cli.CHECKS)))
    argv = [check, draw(st.sampled_from(sorted(cli.BUNDLED)))]
    options = {"--grid": INTS, "--seed": INTS, "--tol": FLOATS}
    if check == "sigma-witness":
        options["--eps"] = FLOATS
    if check == "uniformity":
        options["--samples"] = INTS
    planted = False
    for flag in draw(st.lists(st.sampled_from(sorted(options)), max_size=2, unique=True)):
        value = draw(st.sampled_from(options[flag]))
        # one token, which argparse reads as the option's value even when
        # it starts with "-", as "-inf" does
        argv.append(f"{flag}={value}")
        planted |= options[flag] is FLOATS and not math.isfinite(float(value))
    return argv, planted


@settings(FUZZ, max_examples=250)
@given(case=single_check_argv())
def test_single_checks_with_mutated_options_exit_cleanly(case):
    argv, planted = case
    code, _, err = run(argv)
    assert_clean_exit(code, err)
    assert code == 2 or not planted, (argv, code)
