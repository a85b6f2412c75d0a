"""No input ends in a traceback: token soups and random bytes fed to the
parsers give a value or a PolyError (the base of every documented error),
and fed to the CLI as .qf files, elements or numbers (the counts `--k`
and `--table` among them) give exit 0, 2, 3 or 4.  Forms are kept cheap:
fiber rank at most 4, at most 2 base variables."""

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from quadrikit import cli
from quadrikit.clifford import CliffordContext, parse_element
from quadrikit.polyalg import PolyError, Ring, parse_poly
from quadrikit.quadform import QuadraticForm, parse_qf_text

TOKENS = [
    "x1", "x2", "x3", "x4", "x5", "a", "b", "c", "e1", "e2", "e4", "e9", "l",
    "+", "-", "*", "^", "/", "(", ")", " ",
    "0", "1", "2", "3", "64", "65", "1/0", "0/0",
    "²", "é", "#", "=", '"', "[", "]", ",", "\n", "\x00",
]

soups = st.lists(st.sampled_from(TOKENS), max_size=16).map("".join)
# pieces of numbers, with the Python literal forms the numeral rule refuses
NUMERALS = ["0", "1", "-2", "+", "-", "/", "3/4", "1/0", " ", "1.5", "1e3", "1_0", "\u0664"]
numbers = st.one_of(st.lists(st.sampled_from(NUMERALS), max_size=4).map("".join), soups)
texts = st.one_of(soups, st.text(max_size=40))

RING = Ring(("a", "b", "x1", "x2", "x3", "x4"))
CTX = CliffordContext(
    QuadraticForm.from_expression(["a", "b"], 4, "x1*x2 + a*x3^2 + x3*x4 + b*x4^2")
)


_fiber = st.integers(1, 4).map(lambda i: f"x{i}")
_coefficients = st.sampled_from(["1", "2", "-3", "1/2", "a", "b", "(a+1)", "a^2", "(a-b)^3"])
_terms = st.tuples(_coefficients, _fiber, _fiber).map("*".join)
# mostly well-formed forms and elements, so that commands run past the parser
forms = st.lists(_terms, min_size=1, max_size=4).map(" + ".join)
_factors = st.sampled_from(["e1", "e2", "e3", "e4", "a", "2", "l^-1", "(e1 + b)"])
elements = st.lists(_factors, min_size=1, max_size=5).map("*".join)


@st.composite
def qf_texts(draw):
    """.qf files: the three fields with drawn values, sometimes with a field
    left out, shuffled with stray lines."""
    names = draw(st.lists(st.sampled_from(["a", "b", "a", "b", "x1", "1a", ""]), max_size=2))
    lines = [
        f"base_vars = [{', '.join(names)}]",
        "fiber_rank = " + draw(st.sampled_from(["2", "3", "4", "4", "1", "0", "13", "two"])),
        f'q = "{draw(st.one_of(forms, soups))}"',
    ]
    if draw(st.booleans()):
        lines = draw(st.lists(st.sampled_from(lines), max_size=3, unique=True))
    lines += draw(st.lists(st.one_of(st.just("# comment"), texts), max_size=2))
    return "\n".join(draw(st.permutations(lines)))


_settings = settings(max_examples=150, deadline=None, derandomize=True)


def _documented(call, *args):
    try:
        call(*args)
    except PolyError:
        pass


@_settings
@given(texts)
@example("((((((((((" * 300 + "x1")
@example("1" * 1000)
@example("x1^²")
def test_parse_poly_no_traceback(source):
    _documented(parse_poly, source, RING)


@_settings
@given(texts)
@example("1/0*e1*e2*l^-1")
@example("e²")
@example("-" * 3000 + "e1")
def test_parse_element_no_traceback(source):
    _documented(parse_element, source, CTX)


@_settings
@given(st.one_of(qf_texts(), texts))
def test_parse_qf_text_no_traceback(text):
    _documented(parse_qf_text, text)


QF = "<qf>"  # stands for the path of the drawn .qf file
COMMANDS = [
    ["degeneration", QF, "--k", "1"],
    ["degeneration", QF, "--k", "2"],
    ["clifford", QF, "--table", "1"],
    ["clifford", QF, "--center"],
    ["fiber", QF, "--point", "a=1,b=0"],
]
number_commands = st.one_of(
    st.tuples(numbers, numbers).map(lambda pair: ["node-rank", *pair]),
    st.lists(numbers, min_size=1, max_size=4).map(lambda v: ["reduce", QF, f"--v={','.join(v)}"]),
    numbers.map(lambda value: ["fiber", QF, f"--point=a={value},b=0"]),
    # counts whose every value ends at once; a drawn --samples, --seed or
    # --n can be large and valid, and the run would not end
    numbers.map(lambda value: ["degeneration", QF, f"--k={value}"]),
    numbers.map(lambda value: ["clifford", QF, f"--table={value}"]),
)


@settings(_settings, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    # two of three inputs are .qf texts, the third raw bytes
    data=st.one_of(*[qf_texts().map(str.encode)] * 2, st.binary(max_size=80)),
    command=st.one_of(
        st.sampled_from(COMMANDS),
        st.one_of(elements, soups).map(lambda s: ["clifford", QF, f"--trace={s}"]),
        number_commands,
    ),
)
@example(data=b'base_vars = [a]\nfiber_rank = 2\nq = "x1*x2" \xff\n', command=COMMANDS[0])
@example(data=b'base_vars = [a]\nfiber_rank = 3\nq = "1/0*x1^2"\n', command=COMMANDS[0])
@example(data=b"", command=["node-rank", "1e300000000", "1"])
def test_cli_no_traceback(data, command, tmp_path, capsys):
    path = tmp_path / "input.qf"
    path.write_bytes(data)
    try:
        code = cli.main([str(path) if arg is QF else arg for arg in command])
    except SystemExit as e:  # argparse refusing the arguments
        code = e.code
    capsys.readouterr()
    event(f"exit {code}")
    assert code in (0, 2, 3, 4)
