"""The exit-code contract of ``blend.cli.main`` over argument vectors drawn from its option table.

Every vector of ``diff``, ``direction``, ``plan``, ``tables`` and ``queue``
must exit 0, 2, 64 or 70; an exit of 64 or 70 writes exactly one ``error:``
line and no output.  A vector gives the same output, messages and exit code
under ``BLEND_THREADS`` 0 (serial grids) and 4 (threaded grids), and its
command's own parser, which ``main`` runs, reads it as the whole tree does.
Queue capacities stay at most 5 and refinements at most 8, so the test runs
in a few seconds.

The same vectors, given an ``--out`` or ``--stationary-csv`` path of each
shape (a new file, an existing file, a directory, a trailing separator, a
missing directory, a path under a regular file), keep the contract for
files: a refused path exits 64 with one ``error:`` line that names it and
creates nothing; ``--out`` holds exactly what the command writes to stdout
without it; and every file has the same bytes under both thread settings.
Paths are drawn by shape, not by file mode, since a superuser's writes
ignore modes.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import tempfile
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from blend import cli
from blend.cli import _COMMANDS, _IntRange, main

#: Reals at the edges of the double range, ordinary reals and a non-number;
#: one in four is drawn with a minus sign.
FLOATS = ("0", "5e-324", "1e-300", "1e300", "1.7976931348623157e308", "inf", "nan", "0.5", "1", "2.5", "0.01", "abc")

#: Catalog names, expressions that fail, overflow or vanish, and malformed ones.
FUNCTIONS = (
    "sin",
    "quartic5",
    "theta",
    "theta^2*sin(theta)",
    "exp(theta)",
    "exp(exp(theta))",
    "ln(theta)",
    "1/theta",
    "theta^-0.5",
    "0^theta",
    "1e308*theta^2",
    "1e299*theta",
    "cos(theta)/(theta-1)",
    "e^theta - pi",
    "sin(",
    "theta +",
    "foo(theta)",
)

#: Table numbers, those beyond 1-5, and WHICH values that are not table numbers.
TABLE_NUMBERS = ("1", "2", "3", "4", "5", "all", "0", "6", "-1", "1.0", "ALL", "x", "")

#: Largest valid value drawn per integer option, where its range allows more.
BUDGET = {"--cap1": 5, "--cap2": 5, "--refinements": 8, "--K": 20}

#: Options whose value is a path; command_lines leaves them out, test_output_path_contract adds one.
PATHS = {"--out", "--stationary-csv"}

#: Output paths by shape, relative to a directory that holds existing.txt and sub/.
SHAPES = {
    "new": "new.txt",
    "existing": "existing.txt",
    "directory": "sub",
    "trailing separator": "new.txt" + os.sep,
    "missing directory": os.path.join("missing", "out.txt"),
    "under a file": os.path.join("existing.txt", "out.txt"),
}
WRITABLE = {"new", "existing"}

floats = st.builds(lambda sign, text: sign + text, st.sampled_from(["", "", "", "-"]), st.sampled_from(FLOATS))


def integers(flag: str, kind: _IntRange, refused: bool):
    """Values of an integer option within its range and the budget, or values it refuses."""
    if refused:
        bad = [str(kind.low - 1), "x", "1.5", ""]
        return st.sampled_from(bad + ([str(kind.high + 1), "1" + "0" * 30] if kind.high is not None else []))
    return st.integers(kind.low, min(v for v in (kind.high, BUDGET.get(flag)) if v is not None)).map(str)


@st.composite
def command_lines(draw, names=tuple(_COMMANDS)):
    """One of ``names`` and a shuffled subset of its options, most required ones included.

    In about one vector in four, every integer and choice option is given a value
    it refuses, and direction's lists may differ in length.
    """
    name = draw(st.sampled_from(list(names)))
    dim = draw(st.integers(1, 3))
    refused = draw(st.integers(0, 3)) == 0
    groups = []
    for flag, keywords in _COMMANDS[name][1]:
        if flag in PATHS:
            continue
        # Queue capacities are always given, since their default exceeds the budget.
        always = name == "queue" and flag in ("--cap1", "--cap2")
        required = keywords.get("required") or not flag.startswith("-")
        if not always and draw(st.integers(0, 9)) >= (9 if required else 5):
            continue
        kind = keywords.get("type")
        if keywords.get("action") == "store_true":
            groups.append([flag])
            continue
        if not flag.startswith("-"):
            values = st.sampled_from(TABLE_NUMBERS if name == "tables" else FUNCTIONS)
        elif isinstance(kind, _IntRange):
            values = integers(flag, kind, refused)
        elif "choices" in keywords:
            values = st.just("bogus") if refused else st.sampled_from(keywords["choices"])
        elif kind is float:
            values = floats
        else:  # direction's comma-separated lists, of the drawn dimension unless refused
            size = st.sampled_from([dim, dim % 3 + 1]) if refused else st.just(dim)
            values = size.flatmap(lambda n: st.lists(floats, min_size=n, max_size=n)).map(",".join)
        value = draw(values)
        groups.append([flag, value] if flag.startswith("-") else [value])
    return [name, *(token for group in draw(st.permutations(groups)) for token in group)]


def run(argv: list[str], threads: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"BLEND_THREADS": threads}), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def parse(parser: cli._Parser, tokens: list[str]) -> str:
    """The options ``parser`` reads from ``tokens``, without the command name, or its usage message."""
    try:
        options = vars(parser.parse_args(tokens))
    except cli._UsageError as exc:
        return f"error: {exc}"
    options.pop("command", None)
    return repr(sorted(options.items()))  # repr, since a NaN value is not equal to itself


@given(argv=command_lines())
# A stabilized value that matches -1.7977e308 to its five agreed digits, a decimal past the float range.
@example(argv=["direction", "--a", "1.7976931348623157e308", "--theta", "0.5", "--v", "-1", "--normalize", "--n-max", "40"])
# The directional reference summed inf - inf in fsum.
@example(
    argv=["direction", "--a", "1.7976931348623157e308,0.01,40", "--theta", "1e-300,2.5,1.7976931348623157e308", "--v", "-1,0.01,1e-300", "--normalize"]
)
# The directional reference's finite terms summed past the float range in fsum.
@example(argv=["direction", "--a", "8e307,8e307", "--theta", "1,1", "--v", "1,1", "--normalize"])
@settings(max_examples=500, deadline=None)
def test_exit_code_contract(argv):
    code, out, err = run(argv, "0")
    assert code in (0, 2, 64, 70), (code, err)
    if code in (64, 70):
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert run(argv, "4") == (code, out, err)
    tokens = cli._join_values(argv)
    assert parse(cli._COMMAND_PARSERS[argv[0]], tokens[1:]) == parse(cli._PARSER, tokens)


def layout(root: str) -> None:
    """Empty ``root``, then give it the existing file and the directory that SHAPES name."""
    shutil.rmtree(root)
    os.mkdir(root)
    with open(os.path.join(root, "existing.txt"), "w", encoding="utf-8") as handle:
        handle.write("old\n")
    os.mkdir(os.path.join(root, "sub"))


def snapshot(root: str) -> dict[str, str | None]:
    """Every directory (None) and file (its text) under ``root``, by path."""
    found: dict[str, str | None] = {}
    for directory, subdirectories, files in os.walk(root):
        found.update((os.path.join(directory, name), None) for name in subdirectories)
        for name in files:
            with open(os.path.join(directory, name), encoding="utf-8", newline="") as handle:
                found[os.path.join(directory, name)] = handle.read()
    return found


def parses(argv: list[str]) -> bool:
    return not parse(cli._COMMAND_PARSERS[argv[0]], cli._join_values(argv)[1:]).startswith("error: ")


@st.composite
def path_lines(draw):
    """A path option, a command line that takes it and that its parser reads, and a path shape."""
    flag = draw(st.sampled_from(sorted(PATHS)))
    argv = draw(command_lines(("queue",) if flag == "--stationary-csv" else tuple(_COMMANDS)).filter(parses))
    return flag, argv, draw(st.sampled_from(sorted(SHAPES)))


@given(case=path_lines())
@settings(max_examples=200, deadline=None)
def test_output_path_contract(case):
    flag, argv, shape = case
    plain = run(argv, "0")
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, SHAPES[shape])
        runs = []
        for threads in ("0", "4"):
            layout(root)
            before = snapshot(root)
            runs.append((run([*argv, flag, path], threads), snapshot(root)))
    assert runs[0] == runs[1]
    (code, out, err), after = runs[0]
    if shape not in WRITABLE:
        assert code == 64 and out == "" and after == before
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1, err
    elif plain[0] not in (0, 2):  # the run fails, so nothing is written
        assert (code, out, err) == plain and after == before
    elif flag == "--out":
        assert (code, out, err) == (plain[0], "", plain[2])
        assert after == {**before, path: plain[1]}
    else:
        assert (code, out, err) == plain
        assert after.keys() == before.keys() | {path} and after[path].startswith("n1,n2,prob\n")
