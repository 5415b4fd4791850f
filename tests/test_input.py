"""The CLI's input path: whitespace input of ``cli._ARRAY_TOKENS`` tokens or
more is read as one int64 array, and must give the set, the digest and the
refusals of reading ``int`` per token."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from energia import cli
from energia.sets import IntSet

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
CROSSOVER = cli._ARRAY_TOKENS

# the six ASCII spaces np.fromstring skips, then \x1c-\x1f, which str.split
# treats as spaces too
SPACES = [" ", "\t", "\n", "\v", "\f", "\r", "\r\n", "  "]
SPLIT_SPACES = SPACES + ["\x1c", "\x1d", "\x1e", "\x1f"]

values = st.one_of(
    st.integers(-50, 50),
    st.integers(-(10**6), 10**6),
    st.integers(10**17, 10**18 - 1),  # 18 digits
    st.integers(10**18, INT64_MAX - 2),  # 19 digits
    st.sampled_from([0, INT64_MIN + 1, INT64_MAX - 1]),
).flatmap(lambda v: st.sampled_from([v, -v]))
# at and past the int64 ends, which the array path leaves to int()
wide_values = st.one_of(
    st.sampled_from([INT64_MAX, INT64_MIN]),
    st.integers(INT64_MAX + 1, 10**19 - 1),  # 19 digits
    st.integers(10**19, 10**20 - 1),  # 20 digits
).flatmap(lambda v: st.sampled_from([v, -v]))


@st.composite
def token(draw, values, zeros):
    """A token int() reads: a value's decimal, with ``zeros`` leading zeros."""
    v = draw(values)
    return ("-" if v < 0 else "") + "0" * draw(zeros) + str(abs(v))


@st.composite
def whitespace_text(draw):
    """Tokens padded to just below, at or well above the crossover.  Half
    the texts spell repr(list(A)) but for brackets and commas: sorted,
    distinct, single-spaced, no leading zeros.  The others are drawn or
    sorted, with or without repeats, leading zeros, "-0" and the int64
    ends or values past them, between any ASCII spaces."""
    canonical = draw(st.booleans())
    zeros = st.just(0) if canonical else st.sampled_from([0, 0, 1, 2, 20])
    tokens = draw(st.lists(token(values, zeros), max_size=12))
    if not canonical:
        tokens += draw(st.lists(token(wide_values, zeros) | st.sampled_from(["-0", "00", "-000"]), max_size=1))
    size = draw(st.sampled_from([1, CROSSOVER - 1, CROSSOVER, 2 * CROSSOVER]))
    rng = random.Random(draw(st.integers(0, 2**32)))  # padding from a seed shrinks fast
    tokens += [str(rng.randint(-(10**6), 10**6)) for _ in range(size - len(tokens))]
    if canonical or draw(st.booleans()):
        tokens.sort(key=int)
        if canonical or draw(st.booleans()):
            tokens = list({int(t): t for t in tokens}.values())
    spaces = [" "] if canonical else draw(st.sampled_from([[" "], SPACES, SPLIT_SPACES]))
    gaps = draw(st.lists(st.sampled_from(spaces), min_size=len(tokens), max_size=len(tokens)))
    tail = draw(st.sampled_from(["", "\n", "\r\n"]))
    return "".join(t + g for t, g in zip(tokens, gaps))[:-1] + tail


def read(tmp_path, text):
    p = tmp_path / "in.txt"
    p.write_bytes(text.encode())
    return cli._read_input(str(p))


@settings(max_examples=300, deadline=None)
@given(text=whitespace_text())
def test_array_path_gives_the_set_and_digest_of_int_per_token(tmp_path_factory, text):
    A, digest = read(tmp_path_factory.mktemp("in"), text)
    want = IntSet(map(int, text.split()))
    assert A == want and all(type(x) is int for x in A)
    assert digest == hashlib.sha256(repr(list(want)).encode()).hexdigest()[:16]


def test_long_input_takes_the_array_path(tmp_path):
    vals = list(range(-CROSSOVER, 2 * CROSSOVER, 2))
    A, _ = read(tmp_path, " ".join(map(str, vals[::-1])))
    assert A.arrays is not None and list(A) == vals
    # short input, values at or past the int64 ends, and other spaces keep Python ints
    for text in ("3 1 2", f"{INT64_MAX} " * CROSSOVER, f"{2**64} " * CROSSOVER, "1\x1c" * CROSSOVER):
        assert read(tmp_path, text)[0].arrays is None


def test_canonical_text_is_hashed_as_read(tmp_path, monkeypatch):
    vals = [-(10**18), -5, 0, 7, *range(100, 100 + CROSSOVER), 10**9, INT64_MAX - 1]
    want = hashlib.sha256(repr(vals).encode()).hexdigest()[:16]
    text = " ".join(map(str, vals))
    digests = []
    monkeypatch.setattr(cli, "_digest", lambda A: digests.append(A) or want)
    assert read(tmp_path, text + "\n") == (IntSet(vals), want) and not digests
    # a leading zero, "-0", a second space, a newline or a repeat each spell
    # something else than repr(list(A)), so the digest is taken from the set
    spaced = (text.replace(" ", "  ", 1), text.replace(" ", "\n", 1))
    for other in (text.replace(" 7 ", " 007 "), text.replace(" 0 ", " -0 "), *spaced, "7 " + text):
        assert read(tmp_path, other) == (IntSet(vals), want)
    assert len(digests) == 5


MALFORMED = [
    ("+7", "integers must be ASCII tokens -?[0-9]+"),
    ("1_000", "integers must be ASCII tokens -?[0-9]+"),
    ("٣", "integers must be ASCII tokens -?[0-9]+"),
    ("１２", "integers must be ASCII tokens -?[0-9]+"),
    ("7-", "cannot parse input: invalid literal for int() with base 10: '7-'"),
    ("--7", "cannot parse input: invalid literal for int() with base 10: '--7'"),
    ("5 - 3", "cannot parse input: invalid literal for int() with base 10: '-'"),
    ("5-3", "cannot parse input: invalid literal for int() with base 10: '5-3'"),
    ("-", "cannot parse input: invalid literal for int() with base 10: '-'"),
    ("1.5", "cannot parse input: invalid literal for int() with base 10: '1.5'"),
]


@pytest.mark.parametrize("pad", [0, CROSSOVER])
@pytest.mark.parametrize("bad, message", MALFORMED)
def test_malformed_tokens_are_refused_alike_on_both_paths(capsys, tmp_path, pad, bad, message):
    p = tmp_path / "bad.txt"
    p.write_text(" ".join(map(str, range(pad))) + f" {bad} 9\n", encoding="utf-8")
    assert cli.main(["sumset", "--m", "1", str(p)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"parse error: {message}\n"
