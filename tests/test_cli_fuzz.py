"""The command line has one error boundary: `main` turns every rejected
input into `error: <message>` on stderr and exit code 1, argparse usage
errors exit 2, and no other exception leaves `main`.

Everything runs in-process through `main`; sizes are bounded (exhaustive
n <= 5, --count <= 20, --depth/--branching <= 3, tower height <= 300,
files <= 2 KB) so that no case allocates much memory, and no process is
started."""

import argparse
import ast
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epsilon0.cli
from epsilon0.cli import main
from epsilon0.generate import KINDS, generate
from epsilon0.ramsey.instances import (
    format_coloring, format_family, format_order, format_tournament,
)
from support import run_cli


# ---------------------------------------------------------------------------
# inputs that used to print a traceback
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, message", [
    (["enum", "check", "{missing}"], "No such file or directory"),
    (["enum", "measure", "{missing}"], "No such file or directory"),
    (["descent", "combine", "{missing}"], "No such file or directory"),
    (["descent", "validate", "{missing}"], "No such file or directory"),
    (["generate", "--kind", "coloring", "--n", "3", "--seed", "1", "-o", "{missing}/x"],
     "No such file or directory"),
    (["enum", "check"], "enum check needs an instance file"),
    (["enum", "measure"], "enum measure needs an instance file"),
    # argparse before Python 3.12 gives a lone "--" after "--" as [] for the
    # required descent file, and as None for the optional enum and ramsey one
    (["descent", "combine", "--", "--"], "descent combine needs an instance file"),
    (["descent", "validate", "--", "--"], "descent validate needs an instance file"),
    (["enum", "check", "--", "--"], "enum check needs an instance file"),
    (["enum", "measure", "--", "--"], "enum measure needs an instance file"),
    (["ramsey", "solve", "--", "--"], "ramsey solve needs an instance file"),
    (["ramsey", "coh", "--", "--"], "ramsey coh needs an instance file"),
    (["ord", "compare", "w"], "ord compare needs B"),
    (["ord", "add", "1"], "ord add needs B"),
    (["ord", "nat-mul-k", "w"], "ord nat-mul-k needs B"),
    (["ord", "tower", "w"], "ord tower needs B"),
    (["enum", "run", "--style", "chain", "--depth", "0", "--branching", "-2"],
     "bound and branching must be non-negative, got b=0 d=-2"),
])
def test_former_tracebacks_print_an_error(tmp_path, argv, message):
    argv = [a.replace("{missing}", str(tmp_path / "missing")) for a in argv]
    code, out, err = run_cli(*argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.endswith("\n") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    # argparse before Python 3.12 gives a lone "--" after "--" as []
    (["ord", "eval", "--", "--"], "error: expected 'w' or a number (at position 0)\n"),
    (["ord", "decode", "--", "--"],
     "error: index must be a non-negative decimal integer, got ''\n"),
    (["ord", "eval", "7" * 5000], f"error: coefficient {'7' * 5000} exceeds 64-bit limit\n"),
    (["ord", "eval", "w*" + "7" * 5000 + " + 1"],
     f"error: coefficient {'7' * 5000} exceeds 64-bit limit\n"),
])
def test_ord_operands_past_the_int_limit_or_given_as_dashes(argv, message):
    assert run_cli(*argv) == (1, "", message)


@pytest.mark.parametrize("argv, message", [
    (["ramsey", "solve"], "error: ramsey solve needs an instance file\n"),
    (["ramsey", "sweep", "--kind", "order"], "error: ramsey sweep needs --n\n"),
    (["ord", "compare", "junk"], "error: expected 'w' or a number (at position 0)\n"),
])
def test_existing_messages_keep_their_text(argv, message):
    assert run_cli(*argv) == (1, "", message)


@pytest.mark.parametrize("argv, message", [
    (["ord", "eval", "w", "junk"], "error: ord eval takes no B\n"),
    (["ord", "decode", "5", "junk"], "error: ord decode takes no B\n"),
    (["ord", "encode", "w", "1"], "error: ord encode takes no B\n"),
    (["ord", "nat-mul-omega", "w", "w"], "error: ord nat-mul-omega takes no B\n"),
    (["ord", "omega-pow", "1", "2"], "error: ord omega-pow takes no B\n"),
    (["ramsey", "sweep", "{missing}", "--kind", "order", "--n", "3", "--exhaustive"],
     "error: ramsey sweep takes no instance file\n"),
    (["ramsey", "sweep", "{missing}", "--kind", "order"],
     "error: ramsey sweep takes no instance file\n"),
    (["enum", "run", "{missing}"], "error: enum run takes no instance file\n"),
])
def test_an_unused_positional_argument_is_refused(tmp_path, argv, message):
    argv = [a.replace("{missing}", str(tmp_path / "missing")) for a in argv]
    assert run_cli(*argv) == (1, "", message)


@pytest.mark.parametrize("argv, message", [
    (["ord", "nat-mul-k", "w", "٣"], "error: expected an integer, got '٣'\n"),
    (["ord", "nat-mul-k", "w", "+3"], "error: expected an integer, got '+3'\n"),
    (["ord", "tower", "w", " 2_0"], "error: expected an integer, got ' 2_0'\n"),
    (["ord", "tower", "w", "2 "], "error: expected an integer, got '2 '\n"),
    (["ord", "nat-mul-k", "w", "-3"], "error: k must be non-negative\n"),
    (["sweep", "--kind", "order", "--n", "-2", "--exhaustive"],
     "error: n must be non-negative, got -2\n"),
])
def test_integer_operands_take_ascii_digits(argv, message):
    assert run_cli(*argv) == (1, "", message)


def test_integer_operands_still_read_leading_zeros():
    assert run_cli("ord", "tower", "1", "02") == (0, "w^(w)\n", "")


def _int_options():
    """(subcommand, option) for every `type=int` option of the parser."""
    sub = next(a for a in epsilon0.cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(name, action.option_strings[-1]) for name, p in sub.choices.items()
            for action in p._actions if action.type is int]


def test_every_int_option_is_found():
    assert ("sweep", "--n") in _int_options()
    assert ("enum", "--depth") in _int_options()
    assert len(_int_options()) == 19


@pytest.mark.parametrize("command, option", _int_options())
@pytest.mark.parametrize("value", ["٣", "+3", "0_3", " 3", "3 "])
def test_integer_options_take_ascii_digits(command, option, value):
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main([command, option, value])
    assert exc.value.code == 2
    assert f"argument {option}: invalid int value: {value!r}" in err.getvalue()


def test_a_directory_as_file_is_an_error(tmp_path):
    code, out, err = run_cli("descent", "validate", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


def test_non_utf8_file_is_an_error(tmp_path):
    path = tmp_path / "bad.log"
    path.write_bytes(b"bound=w\n\xff\xfe\n")
    code, out, err = run_cli("enum", "check", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


def test_usage_errors_exit_2():
    with redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
        main(["sweep", "--kind", "coloring"])
    assert exc.value.code == 2


def test_cli_has_one_try_in_main():
    tree = ast.parse(Path(epsilon0.cli.__file__).read_text())
    owners = [func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
              for node in ast.walk(func) if isinstance(node, ast.Try)]
    assert owners == ["main"]
    assert sum(isinstance(node, ast.Try) for node in ast.walk(tree)) == 1
    (handler,) = next(node for node in ast.walk(tree) if isinstance(node, ast.Try)).handlers
    assert ast.unparse(handler.type) == "(ValueError, ArithmeticError, OSError, MemoryError)"


def test_enum_measure_takes_a_chain_past_the_recursion_limit(tmp_path):
    path = tmp_path / "chain.log"
    adds = [f"add {'.'.join('0' * d)} rank={1500 - d}" for d in range(1, 1501)]
    path.write_text("\n".join(["bound=w^(2)", "root rank=w", "stage 1", *adds]) + "\n")
    assert run_cli("enum", "measure", str(path)) == (
        0, "stage=0 zeta=w^(w)\nstage=1 zeta=1\ndecrease ok\n", "")


def test_out_of_memory_is_an_error(tmp_path, monkeypatch):
    """A family of 10^12 elements makes coh_solve ask for a 10^12-bit
    mask; the stub raises MemoryError as that request would, without
    allocating (whether it fails fast depends on the machine)."""
    def out_of_memory(family, target):
        raise MemoryError

    monkeypatch.setattr(epsilon0.cli, "coh_solve", out_of_memory)
    path = tmp_path / "family.txt"
    path.write_text("n=1000000000000 m=0\n")
    assert run_cli("ramsey", "coh", str(path)) == (1, "", "error: out of memory\n")


# ---------------------------------------------------------------------------
# fuzz over argv and file contents
# ---------------------------------------------------------------------------

_FORMATTERS = {"coloring": format_coloring, "tournament": format_tournament,
               "order": format_order, "family": format_family}

_SAMPLE_TEXTS = (
    "k=2 bound=w^(2)\nt=0 e=0 v=w*3\nt=2 e=1 v=w + 4\nt=5 e=0 v=7\n",
    "k=0 bound=1\n",
    "bound=w*2\nw + 3\nw\n5\n0\n",
    "bound=w^(2)\nroot rank=w + 5\nstage 1\nadd 0 rank=w + 2\nadd 1 rank=w\n"
    "stage 2\nadd 0.0 rank=7\n",
    "stage 1\nadd 0\nadd 1\nstage 2\nadd 1.0\n",
)


def _not_a_large_int(text):
    """Junk may read as an int only below every size bound."""
    try:
        return abs(int(text)) <= 3
    except ValueError:
        return True


junk = st.sampled_from(["", "x", "-", "--", "1.5", "w", "w +", "٣", "²", "0x10", " 3", "-0"]) | (
    st.text(max_size=8).filter(lambda t: not t.startswith("-") and _not_a_large_int(t)))
small_ints = st.integers(-3, 12).map(str)
any_ints = st.integers(-5, 2 ** 70).map(str)

ordinal_text = st.recursive(
    st.sampled_from(["0", "1", "7", "w", "9223372036854775807"]),
    lambda inner: st.one_of(
        st.builds("{} + {}".format, inner, inner),
        st.builds("w^({})".format, inner),
        st.builds("{}*{}".format, inner, st.integers(1, 5)),
    ),
    max_leaves=8,
)


@st.composite
def instance_text(draw):
    kind = draw(st.sampled_from(KINDS))
    return _FORMATTERS[kind](generate(kind, draw(st.integers(1, 10)), draw(st.integers(0, 99))))


@st.composite
def mutated(draw, texts):
    text = draw(texts)
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from("0123456789=.-w^()*+ \n\tx#") | st.characters())
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        if edit == "replace":
            text = text[:pos] + char + text[pos + 1:]
        elif edit == "insert":
            text = text[:pos] + char + text[pos:]
        else:
            text = text[:pos] + text[pos + 1:]
    return text


file_bytes = st.one_of(
    st.binary(max_size=2048),
    st.text(max_size=200).map(lambda t: t.encode("utf-8", "surrogatepass")),
    instance_text().map(str.encode),
    mutated(instance_text() | st.sampled_from(_SAMPLE_TEXTS)).map(
        lambda t: t.encode("utf-8", "surrogatepass")),
).filter(lambda b: len(b) <= 2048)


# Placeholders that the test turns into paths under its own directory.
file_arg = st.sampled_from(("{file}", "{file}", "{file}", "{missing}", "{directory}"))


def _maybe(draw, flag, values):
    """The option seven times in eight, with junk for its value one time in ten."""
    if not draw(st.integers(0, 7)):
        return []
    return [flag, draw(junk if draw(st.integers(0, 9)) == 0 else values)]


@st.composite
def argv(draw):
    command = draw(st.sampled_from(("ord", "descent", "enum", "ramsey", "sweep", "generate")))
    kind = st.sampled_from(KINDS)
    out = [command]
    if command == "ord":
        op = draw(st.sampled_from(("eval", "compare", "add", "nat-add", "nat-mul-k",
                                   "nat-mul-omega", "omega-pow", "tower", "encode", "decode")))
        a = draw(ordinal_text | any_ints | junk)
        out += [op, a]
        if draw(st.booleans()):
            if op == "tower":
                b = draw(st.integers(-3, 300).map(str) | junk)
            else:
                b = draw(ordinal_text | any_ints | junk)
            out.append(b)
    elif command == "descent":
        out += [draw(st.sampled_from(("combine", "validate"))), draw(file_arg)]
    elif command == "enum":
        op = draw(st.sampled_from(("check", "measure", "run")))
        out.append(op)
        if draw(st.booleans()):
            out.append(draw(file_arg))
        depth_values = st.integers(-2, 3).map(str)
        out += _maybe(draw, "--bound", small_ints)
        out += _maybe(draw, "--depth", depth_values)
        out += _maybe(draw, "--branching", depth_values)
        out += _maybe(draw, "--fuel", any_ints)
        out += _maybe(draw, "--style", st.sampled_from(("full", "chain", "random")))
        out += _maybe(draw, "--seed", any_ints)
    elif command == "ramsey":
        op = draw(st.sampled_from(("solve", "em", "ads", "coh", "brute", "sweep")))
        out.append(op)
        if draw(st.booleans()):
            out.append(draw(file_arg))
        out += _maybe(draw, "--window", any_ints)
        out += _maybe(draw, "--target", any_ints)
        out += _maybe(draw, "--seed", any_ints)
        out += _maybe(draw, "--format", st.sampled_from(("trace", "summary", "tsv")))
        out += _maybe(draw, "--instance", st.sampled_from(("coloring", "tournament")))
        out += _maybe(draw, "--kind", kind)
        out += _sweep_size(draw)
        out += _maybe(draw, "--max-rows", small_ints)
    elif command == "sweep":
        out += _maybe(draw, "--kind", kind)
        out += _sweep_size(draw)
        out += _maybe(draw, "--seed", any_ints)
        out += _maybe(draw, "--window", any_ints)
        out += _maybe(draw, "--target", any_ints)
        out += _maybe(draw, "--format", st.sampled_from(("summary", "tsv", "trace")))
        out += _maybe(draw, "--max-rows", small_ints)
    else:
        out += _maybe(draw, "--kind", kind)
        out += _maybe(draw, "--n", small_ints)
        out += _maybe(draw, "--seed", any_ints)
        if draw(st.booleans()):
            out += ["-o", draw(st.sampled_from(("{missing}", "{directory}", "{output}")))]
    if draw(st.integers(0, 9)) == 0:
        out.insert(draw(st.integers(0, len(out))), draw(junk))
    return out


def _sweep_size(draw):
    """--n with --exhaustive (n <= 5) or with --count (<= 20), or neither.
    Exhaustive n stops at 5: one n = 6 coloring sweep takes about 2 s,
    and hypothesis repeats the examples it mutates."""
    mode = draw(st.sampled_from(("exhaustive", "exhaustive", "count", "count", "both", "neither")))
    n = draw(st.integers(-2, 5) if mode in ("exhaustive", "both") else st.integers(-3, 12))
    size = _maybe(draw, "--n", st.just(str(n)))
    if mode in ("exhaustive", "both"):
        size.append("--exhaustive")
    if mode in ("count", "both"):
        size += _maybe(draw, "--count", st.integers(-3, 20).map(str))
    return size


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(argv=argv(), content=file_bytes)
def test_no_exception_escapes_main(workdir, argv, content):
    (workdir / "input.txt").write_bytes(content)
    places = {"{file}": workdir / "input.txt", "{missing}": workdir / "missing" / "x",
              "{directory}": workdir, "{output}": workdir / "output.txt"}
    argv = [str(places.get(a, a)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        return
    assert code in (0, 1), argv
    if code == 1:
        # A rejected input names itself on stderr; a failed checker says
        # so on stdout.
        assert err.getvalue().startswith("error: ") or out.getvalue(), argv
    if err.getvalue().startswith("error: "):
        assert code == 1, argv
