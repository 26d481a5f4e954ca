"""Fuzzing of the three instance-file readers.

Each example writes a valid instance, mutates its text, and reads it back.
A mutated file may still be valid; when it is not, the reader must raise a
``PairsketchError`` whose message begins with the file's path, never a bare
Python exception or a message that leaves the file unnamed.
"""
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pairsketch import PairsketchError
from pairsketch.bhm import generate_instance
from pairsketch.harness import generate_graph, parse_stream, write_instance
from pairsketch.heavy_edges import DirectedEdgeStream
from pairsketch.triangle import EdgeStream

TOKENS = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["V", "E", "x", "1/4", "1/2", "0/0", "1.5", "", "-", "1_0", "99999999999"]),
)


def _base(kind: str, seed: int) -> object:
    if kind == "bhm":
        return generate_instance(8, Fraction(1, 4), seed % 2, seed=seed)
    gnp, _ = generate_graph("gnp", {"n": 6, "p": 0.5}, seed)
    cls = EdgeStream if kind == "undirected" else DirectedEdgeStream
    return cls(gnp.n, gnp.edges)


@st.composite
def mutations(draw, lines: list[str]) -> list[str]:
    """Apply one to four line- or token-level edits to ``lines``."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        edit = draw(st.sampled_from(["token", "drop", "dup", "swap", "insert", "extend", "cut"]))
        if not lines:
            lines.append(" ".join(draw(st.lists(TOKENS, max_size=4))))
        elif edit == "token":
            parts = lines[i].split() or [""]
            parts[draw(st.integers(0, len(parts) - 1))] = draw(TOKENS)
            lines[i] = " ".join(parts)
        elif edit == "drop":
            del lines[i]
        elif edit == "dup":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "insert":
            lines.insert(i, " ".join(draw(st.lists(TOKENS, max_size=4))))
        elif edit == "extend":
            lines[i] += " " + draw(TOKENS)
        else:
            lines[i] = " ".join(lines[i].split()[:-1])
    return lines


def _fuzz_one(kind: str, seed: int, data) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.txt"
        write_instance(_base(kind, seed), path)
        lines = data.draw(mutations(path.read_text(encoding="ascii").splitlines()))
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        try:
            parse_stream(path, kind)
        except PairsketchError as exc:
            assert str(exc).startswith(f"{path}:"), str(exc)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 50), st.data())
def test_undirected_reader_names_the_file_on_every_failure(seed, data):
    _fuzz_one("undirected", seed, data)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 50), st.data())
def test_directed_reader_names_the_file_on_every_failure(seed, data):
    _fuzz_one("directed", seed, data)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 50), st.data())
def test_bhm_reader_names_the_file_on_every_failure(seed, data):
    _fuzz_one("bhm", seed, data)
