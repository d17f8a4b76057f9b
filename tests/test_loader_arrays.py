"""The array-held complex against the dict path it replaced, from the file on.

The CLI's loader (one batch of vertex ids per file, closed one degree at a
time on keys, memberships looked up by key) against the dict path kept in
`tests/naive.py` (`line_parse`, `face_closure` with `dict_complex`, and
`index_closure`): on raw file texts of every shape the parser meets, the
same exit code, stdout, stderr and report for `betti`, `morse-check` and
`mv-audit --level ordinary`. Vertex ids at and past 2**63 give what the same
complex relabelled to small ids gives. A membership file's values are
checked as rationals. Lines end at `\\n`, `\\r\\n` and `\\r` only: the other
characters `str.splitlines` breaks at run on inside a line, a comment's
included. Vertex ids are ASCII decimal digits. Masks, closures and key
lookups against their `_index`-lookup forms, also where the keys outgrow
int64.
"""

import itertools
import json
import random
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from homaudit import cli
from homaudit.complexes import Simplex, SimplicialComplex, _batch, _closed, close_under_faces

from naive import (dict_complex, dict_load_complex, dict_load_membership, face_closure,
                   index_closure, index_mask)
from randfix import random_complex, random_subcomplex

_NUMBERS = itertools.count()


def _write(directory, data: bytes):
    path = directory / f"f{next(_NUMBERS)}.txt"  # one new file per call
    path.write_bytes(data)
    return path


def _outcome(capsys, argv, report=None):
    """(exit code, stdout, stderr, report bytes) of one CLI run in this process."""
    if report is not None:
        report.unlink(missing_ok=True)
        argv = argv + ["--json", str(report)]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err, report.read_bytes() if report is not None and report.exists() else None


def _both(capsys, argv, report=None):
    """The outcome with the array loader, then with the dict path's."""
    new = _outcome(capsys, argv, report)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "load_complex", dict_load_complex)
        patch.setattr(cli, "load_membership", dict_load_membership)
        old = _outcome(capsys, argv, report)
    return new, old


# what follows a drawn line: mostly a line end; now and then a character
# `str.splitlines` breaks at, which ends no line, so the line runs on
_ENDS = st.sampled_from(["\n"] * 6 + ["\r\n", "\r"] * 2 +
                        ["\v", "\f", "\x1c", "\x85", "\u2028"])
_GAPS = st.sampled_from([" ", " ", "  ", "\t", " \t"])
_RARELY = st.sampled_from([False] * 15 + [True])  # a rare branch, drawn evenly
_SIMPLICES = st.tuples(
    st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True).map(sorted),
    st.lists(st.integers(-2, 5), max_size=3), _RARELY).map(  # negative, unsorted, repeated
    lambda drawn: drawn[1] if drawn[2] else drawn[0])
_VALUES = st.tuples(
    st.sampled_from([None, None, "+3", "007", "-0", "5/2", "-7/4", "1.5", "-0.25", "1e1",
                     "25e-1", "2E+0"] + [str(v) for v in range(-3, 10)]),
    st.sampled_from(["abc", "", "1/0", "1 2", "\u0663"]), _RARELY).map(
    lambda drawn: drawn[1] if drawn[2] else drawn[0])
_COMMENTS = st.sampled_from(["", "", " # note", "# 1 2 : 3", " #\u2028 0 1"])
_BLANK = st.sampled_from(["", "  ", "\t", "# a comment line", "  # 0 1 : 2"])


@st.composite
def _lines(draw):
    gap = draw(_GAPS)
    head = gap.join(map(str, draw(_SIMPLICES)))
    value = draw(_VALUES)
    return head + ("" if value is None else f"{gap}:{gap}{value}") + draw(_COMMENTS)


@st.composite
def _texts(draw, max_lines=9):
    """A file's bytes: drawn lines, some repeated with another value, each
    ended by a drawn line break; now and then a byte that is not UTF-8."""
    lines = draw(st.lists(st.one_of(_lines(), _BLANK), max_size=max_lines))
    for i in draw(st.lists(st.integers(0, max(len(lines) - 1, 0)), max_size=2)):
        if lines:  # the same simplex again, with a value drawn anew
            lines.append(lines[i].partition(":")[0].rstrip() + f" : {draw(_VALUES) or 1}")
    data = "".join(line + draw(_ENDS) for line in lines).encode("utf-8")
    if draw(_RARELY):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + data[at:]
    return data


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(complex_text=_texts(), a_text=st.one_of(st.none(), _texts(5)), b_text=_texts(5),
       strict=st.booleans())
@example(complex_text=b"0 1 : 1\n0 : 0\n1 : 0\n0 1 : 2\n", a_text=None, b_text=b"0 1\n",
         strict=False)
@example(complex_text=b"0 1 2 : 3\r\n1 2 : 1\x851\t: 0\n", a_text=None, b_text=b"2 1\n",
         strict=True)
def test_the_loader_matches_the_dict_path(tmp_path, capsys, complex_text, a_text, b_text,
                                          strict):
    x = _write(tmp_path, complex_text)
    a = x if a_text is None else _write(tmp_path, a_text)  # A = X covers X
    b = _write(tmp_path, b_text)
    flags = ["--strict-values"] if strict else []
    for argv, report in ((["betti", str(x)] + flags, None),
                         (["morse-check", str(x)] + flags, None),
                         (["mv-audit", str(x), "--subspace-a", str(a), "--subspace-b", str(b),
                           "--level", "ordinary"] + flags, tmp_path / "report.json")):
        new, old = _both(capsys, argv, report)
        assert new == old, argv
        assert new[0] in (0, 1, 2, 3, 4)


def _relabelled(text: str, offset: int) -> str:
    """A file's text with every vertex id v written as offset + v."""
    out = []
    for line in text.splitlines():
        head, sep, tail = line.partition(":")
        if not line.startswith("#"):
            head = " ".join(str(offset + int(v)) for v in head.split()) + (" " if sep else "")
        out.append(head + sep + tail)
    return "\n".join(out) + "\n"


def _cells_relabelled(stdout: str, offset: int) -> str:
    """morse-check's output with the ids of every listed cell written as offset + v."""
    def shift(match):
        return str(tuple(offset + int(v) for v in match.group(1).split(",") if v.strip()))
    return "".join(
        head + sep + re.sub(r"\(([\d, ]+)\)", shift, cells) if head.startswith("critical")
        else line for line in stdout.splitlines(keepends=True)
        for head, sep, cells in [line.partition(": ")])


@pytest.mark.parametrize("offset", [10 ** 30, 2 ** 63 - 4], ids=["1e30", "2^63-4"])
def test_vertex_ids_past_int64_give_the_relabelled_results(data_dir, tmp_path, capsys, offset):
    torus, names = data_dir / "torus", ("complex.txt", "subspace_a.txt", "subspace_b.txt")
    small = [torus / name for name in names]
    big = [_write(tmp_path, _relabelled(p.read_text(encoding="utf-8"), offset).encode())
           for p in small]

    def runs(x, a, b):
        report = tmp_path / f"report{next(_NUMBERS)}.json"
        out = [_outcome(capsys, ["betti", str(x)]), _outcome(capsys, ["barcode", str(x)]),
               _outcome(capsys, ["mv-audit", str(x), "--subspace-a", str(a), "--subspace-b",
                                 str(b), "--level", "persistent", "--u", "95", "--v", "100"],
                        report)]
        written = json.loads(out[-1][3])
        written.pop("inputs")  # its paths and digests name the files
        return [o[:3] for o in out], written

    assert runs(*big) == runs(*small)
    code, stdout, err, _ = _outcome(capsys, ["morse-check", str(big[0])])
    small_code, small_stdout, _, _ = _outcome(capsys, ["morse-check", str(small[0])])
    assert (code, err) == (small_code, "") and stdout != small_stdout
    assert stdout == _cells_relabelled(small_stdout, offset)  # each id printed exactly
    new, old = _both(capsys, ["morse-check", str(big[0])])
    assert new == old


@pytest.mark.parametrize("command", ["mv-audit", "pair-audit"])
def test_a_membership_value_is_checked_as_a_rational(tmp_path, capsys, command):
    x = _write(tmp_path, b"0 : 0\n1 : 0\n0 1 : 1\n")
    a = _write(tmp_path, b"# A\n0 1 : abc\n")
    argv = [command, str(x), "--subspace-a", str(a)]
    argv += ["--subspace-b", str(x)] if command == "mv-audit" else []
    code, out, err, _ = _outcome(capsys, argv + ["--level", "ordinary"])
    assert (code, out) == (2, "")
    assert err == f"parse error: {a}:2: not a rational value: 'abc'\n"
    good = _write(tmp_path, b"0 1 : 5/2\n")  # a rational value is read, then ignored
    argv[3] = str(good)
    assert _outcome(capsys, argv + ["--level", "ordinary"])[0] == 0


@pytest.mark.parametrize("end", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                 "\u2029", "\r", "\r\n"])
def test_every_splitlines_break_ends_a_line(tmp_path, capsys, end):
    """Each of these ends a line for `str.splitlines`; the loader ends one at
    `\\r` and `\\r\\n` (and `\\n`) only, and at any other the line runs on."""
    assert f"a{end}b".splitlines() == ["a", "b"]
    ends = end in ("\r", "\r\n")
    x = _write(tmp_path, f"0 : 0{end}1 : 1\n".encode("utf-8"))
    code, out, err, _ = _outcome(capsys, ["barcode", str(x)])
    if ends:
        assert (code, out, err) == (0, "degree 0: [0, inf) [1, inf)\n", "")
    else:
        assert (code, out) == (2, "")
        assert err == f"parse error: {x}:1: not a rational value: {f'0{end}1 : 1'!r}\n"
    # in a comment: what follows is a line of its own, or comment text
    x = _write(tmp_path, f"1 : 1 # a{end}2 : 5\n".encode("utf-8"))
    assert _outcome(capsys, ["barcode", str(x)])[:2] == \
        (0, "degree 0: [1, inf) [5, inf)\n" if ends else "degree 0: [1, inf)\n")
    new, old = _both(capsys, ["barcode", str(x)])
    assert new == old


def test_a_comment_holding_a_line_separator_runs_to_the_line_end(tmp_path, capsys):
    x = _write(tmp_path, "0 : 0\n1 : 1\n# note\u2028more text\n".encode("utf-8"))
    assert _outcome(capsys, ["betti", str(x)])[:3] == (0, "b0=2\n", "")
    new, old = _both(capsys, ["betti", str(x)])
    assert new == old


@pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff11", "+3", "-0"])
def test_a_vertex_id_is_ascii_decimal_digits(tmp_path, capsys, token):
    """`int` reads each of these as a vertex (10, 3, 1, 3 and 0); the loader
    and the dict path refuse them alike, at their line."""
    x = _write(tmp_path, f"0 : 0\n{token} 4 : 1\n".encode("utf-8"))
    for command in ("morse-check", "betti"):
        code, out, err, _ = _outcome(capsys, [command, str(x)])
        assert (code, out) == (2, "")
        assert err == f"parse error: {x}:2: vertex ids must be integers: {f'{token} 4'!r}\n"
    new, old = _both(capsys, ["morse-check", str(x)])
    assert new == old


def _random_cases():
    """(K, subcomplexes, non-subcomplexes) over random complexes up to
    dimension 3, one of them on ids past 2**63."""
    rng, out = random.Random(41), []
    for i in range(40):
        K = random_complex(rng, max_simplices=(14, 25, 40)[i % 3], n_vertices=(5, 7)[i % 2])
        subs = [random_subcomplex(K, rng), K.closure(rng.sample(K.simplices(), 3)), K]
        others = [close_under_faces([(0, 99)]), close_under_faces([*K.simplices(), (0, 1, 2, 3, 4)])]
        out.append((K, subs, others))
    big = close_under_faces([(2 ** 63 + 1, 2 ** 64), (5, 2 ** 63 + 1), (5, 10 ** 30)])
    out.append((big, [big.closure([(5, 2 ** 63 + 1)])], [close_under_faces([(5, 6)])]))
    return out


def test_masks_and_closures_match_their_index_lookup_forms():
    for K, subs, others in _random_cases():
        for sub in subs + others:
            want = index_mask(K, sub)
            got = K._mask(sub)
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got, want)
                assert np.array_equal(K._mask(dict_complex(sub.facet_table)), want)
        for generators in ([], K.simplices(), K.maximal_simplices()[:2]):
            got, want = K.closure(generators), index_closure(K, generators)
            assert got == want and got.simplices() == want.simplices()
            assert got.facet_table == want.facet_table


def test_few_and_many_generators_close_alike():
    """`close_under_faces` closes up to 32 simplices on sets of tuples and
    more by the array passes (`_closed`); on either side, and by either path,
    the complex is the dict path's, ids past 2**63 included."""
    rng, big = random.Random(43), 10 ** 30
    cases = [[(big + i,) for i in range(n)] + [(2 ** 63, big, big + 1)] for n in (3, 40)]
    for i in range(60):
        K = random_complex(rng, max_simplices=(14, 25, 40)[i % 3], n_vertices=(5, 7, 9)[i % 3])
        cases.append(rng.sample(K.simplices(), min(len(K), (3, 12, 31, 33, 40)[i % 5])))
    for generators in cases:
        want = dict_complex(face_closure(map(Simplex, generators)))
        for got in (close_under_faces(generators), _closed(*_batch(map(Simplex, generators)))[0]):
            assert got == want and got.simplices() == want.simplices()
            assert got.facet_table == want.facet_table


@pytest.mark.parametrize("n_vertices", [2000, 7])
def test_closure_and_lookup_where_keys_outgrow_int64(n_vertices):
    """2,000 vertices and a 5-simplex: 2001 ** 6 keys pass 2**63, and the keys
    become Python ints; the complex matches the dict path's all the same."""
    generators = [(v,) for v in range(n_vertices)] + [(1, 2, 3, 4, 5, 6)]
    K = close_under_faces(generators)
    want = dict_complex(face_closure(map(Simplex, generators)))
    assert K == want and K.simplices() == want.simplices()
    assert K.facet_table == want.facet_table
    assert np.array_equal(K._mask(want), np.ones(len(K), dtype=bool))
    A = K.closure([(2, 3, 4, 5), (0,)])
    assert A.simplices() == index_closure(K, [(2, 3, 4, 5), (0,)]).simplices()
    assert SimplicialComplex(K.simplices()) == K
