"""CLI behaviour: output formats, exit codes, JSON report stability."""

import functools
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from homaudit import cli
from homaudit.cli import ParseError, _rational, load_complex, main
from homaudit.complexes import NotSubcomplexError, Simplex, intersect
from homaudit.fixtures import torus_triad
from homaudit.morse import filtration_from_morse
from homaudit.persistence import NotACycleError, PersistenceResult
from homaudit.sequences import MayerVietorisSystem, RestrictionLeakError

from naive import (close_then_check_membership, dict_inherited_values, faces_inherited_values,
                   fault_sites, fraction_rational, set_intersection, with_entry)
from randfix import make_fixture, random_complex

TORUS_ARGS = None  # filled per-test from data_dir


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_betti_triangle(tmp_path, capsys):
    path = write(tmp_path, "tri.txt", "0 1 2\n")
    code, out, _ = run(capsys, "betti", path)
    assert code == 0
    assert out.strip() == "b0=1 b1=0 b2=0"


def test_betti_hollow_triangle(tmp_path, capsys):
    path = write(tmp_path, "hollow.txt", "0 1\n1 2\n0 2\n")
    code, out, _ = run(capsys, "betti", path)
    assert code == 0
    assert out.strip() == "b0=1 b1=1"


def test_betti_torus(data_dir, capsys):
    code, out, _ = run(capsys, "betti", str(data_dir / "torus" / "complex.txt"))
    assert code == 0
    assert out.strip() == "b0=1 b1=2 b2=1"
    code, out, _ = run(capsys, "betti", str(data_dir / "torus" / "complex.txt"),
                       "--field", "3")
    assert code == 0
    assert out.strip() == "b0=1 b1=2 b2=1"


def test_non_prime_field_rejected(data_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["betti", str(data_dir / "torus" / "complex.txt"), "--field", "4"])
    assert exc.value.code == 2
    capsys.readouterr()


def _run_python(code, *args):
    """Run `python -c code args` against this checkout's src/, with a timeout:
    a primality test by trial division of a huge modulus would run for hours."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=60)


def test_huge_field_rejected_before_any_primality_test(data_dir):
    mersenne = str(2**61 - 1)  # a prime: about 7.6e8 odd trial divisors below its root
    proc = _run_python("import sys; from homaudit.cli import main; sys.exit(main(sys.argv[1:]))",
                       "betti", str(data_dir / "torus" / "complex.txt"), "--field", mersenne)
    assert proc.returncode == 2 and "below 2^31" in proc.stderr
    proc = _run_python("from homaudit.linalg import check_modulus\n"
                       "try:\n    check_modulus(2**61 - 1)\n"
                       "except ValueError as exc:\n    print(exc)")
    assert proc.returncode == 0 and "too large" in proc.stdout


def test_malformed_thresholds_exit4(data_dir, capsys):
    code, _, err = run(capsys, "barcode", str(data_dir / "torus" / "complex.txt"),
                       "--thresholds", "abc")
    assert code == 4 and "rationals" in err


def test_parse_error_reports_line(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "0 1\n2 2\n")
    code, out, err = run(capsys, "betti", path)
    assert code == 2
    assert "bad.txt:2" in err


@pytest.mark.parametrize("data, line_no, byte", [
    (b"\xff", 1, "0xff"),
    (b"0 1\n1 2\n\xff 3\n", 3, "0xff"),
    (b"0 1 # caf\xc3\n", 1, "0xc3"),  # a sequence cut short by the line break
    (b"0\r\n1\r2 # \xe2\x80\xa8 \xc3\x28\n", 4, "0xc3"),  # \r and U+2028 end lines too
    (b"# \xc3\xa9t\xc3\xa9\n0 1\n\n0 : \x80\n", 4, "0x80"),
], ids=["only", "third", "cut", "breaks", "after-utf8"])
def test_non_utf8_input_is_a_parse_error_at_its_line(tmp_path, capsys, data, line_no, byte):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(data)
    code, out, err = run(capsys, "betti", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: {bad}:{line_no}: not UTF-8 text: byte {byte} (")
    # a membership file is read the same way
    complex_path = write(tmp_path, "x.txt", "0 1 : 1\n1 2 : 2\n")
    whole = write(tmp_path, "whole.txt", "0 1\n1 2\n")
    code, out, err = run(capsys, "mv-audit", complex_path, "--subspace-a", whole,
                         "--subspace-b", str(bad), "--level", "ordinary")
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: {bad}:{line_no}: not UTF-8 text: byte {byte} (")


@pytest.mark.parametrize("where, reason", [("missing/report.json", "No such file or directory"),
                                           (".", "Is a directory")], ids=["missing", "dir"])
def test_an_unwritable_report_is_an_input_error_after_the_output(data_dir, tmp_path, capsys,
                                                                 where, reason):
    target = str(tmp_path / where)
    for argv in (["barcode", str(data_dir / "torus" / "complex.txt")],
                 _torus_audit_args(data_dir, "persistent", "--u", "95", "--v", "100")):
        want_out = run(capsys, *argv)[1]
        assert run(capsys, *argv, "--json", target) == (
            4, want_out, f"input error: cannot write report {target}: {reason}\n")


def test_parse_error_bad_value(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "0 1 : x\n")
    code, _, err = run(capsys, "betti", path)
    assert code == 2 and ":1:" in err


def test_morse_check_ok(tmp_path, capsys):
    path = write(tmp_path, "edge.txt", "0 : 0\n1 : 2\n0 1 : 1\n")
    code, out, _ = run(capsys, "morse-check", path)
    assert code == 0
    assert "OK: discrete Morse function" in out
    assert "critical 0-cells (1): (0,)" in out
    assert "perfect: yes" in out


def test_morse_check_violation_exit_3(tmp_path, capsys):
    path = write(tmp_path, "flat.txt", "0 : 0\n1 : 0\n0 1 : 0\n")
    code, out, _ = run(capsys, "morse-check", path)
    assert code == 3
    assert "NOT a discrete Morse function" in out
    assert "excess_facets" in out


def test_morse_check_torus(data_dir, capsys):
    code, out, _ = run(capsys, "morse-check", str(data_dir / "torus" / "complex.txt"))
    assert code == 0
    assert "perfect: yes (critical counts [1, 2, 1], betti [1, 2, 1]" in out


def test_value_inheritance(tmp_path, capsys):
    # faces inherit the min over listed cofaces; here everything enters at 1
    path = write(tmp_path, "inherit.txt", "0 1 2 : 1\n")
    code, out, _ = run(capsys, "barcode", path)
    assert code == 0
    assert "degree 0: [1, inf)" in out
    code, _, err = run(capsys, "barcode", path, "--strict-values")
    assert code == 2


def test_barcode_table_and_json(tmp_path, data_dir, capsys):
    report_path = tmp_path / "bars.json"
    code, out, _ = run(capsys, "barcode", str(data_dir / "torus" / "complex.txt"),
                       "--thresholds", "0,6,8,79,95,100", "--degree", "1",
                       "--json", str(report_path))
    assert code == 0
    assert out.splitlines()[0] == "degree 1: [6, inf) [8, inf)"
    report = json.loads(report_path.read_text())
    assert report["degrees"][0]["intervals"] == [
        {"birth": "6", "death": None}, {"birth": "8", "death": None}]


def test_barcode_b_restriction(data_dir, capsys):
    code, out, _ = run(capsys, "barcode", str(data_dir / "torus" / "complex_b.txt"),
                       "--thresholds", "0,6,8,79,95,100", "--degree", "1")
    assert code == 0
    assert out.strip() == "degree 1: [8, inf) [95, 100)"


def test_barcode_one_step_hollow(tmp_path, capsys):
    path = write(tmp_path, "hollow.txt", "0 1\n1 2\n0 2\n")
    code, out, _ = run(capsys, "barcode", path, "--degree", "1")
    assert code == 0
    assert out.strip() == "degree 1: [0, inf)"


def test_fraction_values_round_trip(tmp_path, capsys):
    path = write(tmp_path, "frac.txt", "0 : 1/2\n1 : 5/2\n0 1 : 3/2\n")
    code, out, _ = run(capsys, "morse-check", path)
    assert code == 0
    code, out, _ = run(capsys, "barcode", path, "--degree", "0",
                       "--thresholds", "1/2,3/2,5/2")
    assert code == 0
    assert out.strip() == "degree 0: [1/2, inf)"


NON_MORSE = """\
# several violations, each with more than one witness somewhere
0 : 2
1 : 0
2 : 0
3 : 1
0 1 : 2
0 2 : 1
1 2 : 1
0 1 2 : 2
1 3 : 0
2 3 : 0
1 2 3 : 0
"""


def test_morse_check_lists_violations_and_witnesses_in_order(tmp_path, capsys):
    code, out, _ = run(capsys, "morse-check", write(tmp_path, "bad.txt", NON_MORSE))
    assert code == 3
    assert out == """\
NOT a discrete Morse function:
  excess_cofacets at (0,) (witnesses [(0, 1), (0, 2)])
  excess_cofacets at (3,) (witnesses [(1, 3), (2, 3)])
  both_exceptional at (0, 1) (witnesses [(0, 1, 2), (0,)])
  excess_facets at (1, 3) (witnesses [(3,), (1,)])
  excess_facets at (2, 3) (witnesses [(3,), (2,)])
  excess_facets at (1, 2, 3) (witnesses [(2, 3), (1, 3), (1, 2)])
"""


@pytest.mark.parametrize("text", ["0 : 0\n1 : 2\n0 1 : 1\n", NON_MORSE], ids=["morse", "not-morse"])
def test_morse_check_classifies_once(tmp_path, capsys, monkeypatch, text):
    from homaudit import morse
    calls = []
    real = morse._classify
    monkeypatch.setattr(morse, "_classify", lambda K, f: calls.append(K) or real(K, f))
    assert run(capsys, "morse-check", write(tmp_path, "f.txt", text))[0] in (0, 3)
    assert len(calls) == 1


INHERITED_FRACTIONS = """\
# explicit values on maximal cells only, mixed integral and fractional; faces inherit
0 1 2 : 7/2
1 2 3 : 5/2
2 4 : 1/3
3 4 : 0.5
4 5 : 3
0 5 : 9/3
"""

INHERITED_FRACTIONS_REPORT = """\
{
  "command": "barcode",
  "degrees": [
    {
      "degree": 0,
      "intervals": [
        {
          "birth": "1/3",
          "death": null
        }
      ]
    },
    {
      "degree": 1,
      "intervals": [
        {
          "birth": "3",
          "death": null
        },
        {
          "birth": "7/2",
          "death": null
        }
      ]
    },
    {
      "degree": 2,
      "intervals": []
    }
  ],
  "field": 2,
  "inputs": {
    "complex": {
      "path": "PATH",
      "sha256": "211ead2401af70e3e935443ce94a7007bc46ca9c52af777629a5c237b794684f"
    }
  },
  "thresholds": [
    "1/3",
    "1/2",
    "3",
    "7/2"
  ],
  "tool": "homaudit",
  "version": "VERSION"
}
"""


def test_inherited_fractional_values_report_bytes(tmp_path, capsys):
    # labels and report of values written as '0.5', '9/3', '1/3', thresholds
    # '0.5' and '1/2' together, '3' and '6/2' together
    from homaudit import __version__
    path = write(tmp_path, "inherit.txt", INHERITED_FRACTIONS)
    report = tmp_path / "bars.json"
    code, out, _ = run(capsys, "barcode", path, "--thresholds=1/3,0.5,1/2,3,6/2",
                       "--json", str(report))
    assert code == 0
    assert out == "degree 0: [1/3, inf)\ndegree 1: [3, inf) [7/2, inf)\ndegree 2:\n"
    assert report.read_text() == (INHERITED_FRACTIONS_REPORT.replace("PATH", path)
                                  .replace("VERSION", __version__))
    code, out, _ = run(capsys, "barcode", path, "--json", str(report))
    assert code == 0  # not Morse: every distinct value is a threshold
    assert out == "degree 0: [1/3, inf)\ndegree 1: [5/2, inf) [7/2, inf)\ndegree 2:\n"
    assert json.loads(report.read_text())["thresholds"] == ["1/3", "1/2", "5/2", "3", "7/2"]


def test_barcode_empty_file(tmp_path, capsys):
    path = write(tmp_path, "empty.txt", "# nothing here\n")
    code, out, _ = run(capsys, "barcode", path)
    assert code == 0
    assert out.strip() == "degree 0:"


def _torus_audit_args(data_dir, level, *extra):
    d = data_dir / "torus"
    return ["mv-audit", str(d / "complex.txt"),
            "--subspace-a", str(d / "subspace_a.txt"),
            "--subspace-b", str(d / "subspace_b.txt"),
            "--level", level, *extra]


def test_mv_audit_persistent_exit0_with_defect(data_dir, tmp_path, capsys):
    report_path = tmp_path / "mv.json"
    code, out, _ = run(capsys, *_torus_audit_args(
        data_dir, "persistent", "--u", "95", "--v", "100", "--json", str(report_path)))
    assert code == 0  # non-exactness is reported, only order-2 violations fail
    assert "law (order-2): holds" in out
    assert "defects {'(k=1, A∩B)': 1}" in out
    report = json.loads(report_path.read_text())
    assert report["persistent_dims"]["A∩B"][1] == 2
    assert report["persistent_dims"]["A"][1] == 1
    assert report["persistent_dims"]["B"][1] == 1
    row = next(r for r in report["positions"] if r["term"] == "A∩B" and r["degree"] == 1)
    assert row["image_in"] == 0 and row["kernel_out"] == 1 and row["defect"] == 1
    assert report["verdict"] == {"law": "order-2", "holds": True,
                                 "order2": True, "exact": False}


def test_mv_audit_module_exact(data_dir, capsys):
    code, out, _ = run(capsys, *_torus_audit_args(
        data_dir, "module", "--thresholds", "0,6,8,79,95,100"))
    assert code == 0
    assert "law (exact): holds" in out


def test_mv_audit_ordinary_defaults_to_full_level(data_dir, capsys):
    code, out, _ = run(capsys, *_torus_audit_args(data_dir, "ordinary"))
    assert code == 0
    assert "law (exact): holds" in out


def test_mv_audit_not_covering_exit4(tmp_path, capsys):
    complex_path = write(tmp_path, "x.txt", "0 1 : 1\n1 2 : 2\n")
    a_path = write(tmp_path, "a.txt", "0 1\n")
    code, _, err = run(capsys, "mv-audit", complex_path,
                       "--subspace-a", a_path, "--subspace-b", a_path,
                       "--level", "ordinary")
    assert code == 4
    assert "cover" in err


def test_mv_audit_membership_outside_complex_exit4(tmp_path, capsys):
    complex_path = write(tmp_path, "x.txt", "0 1 : 1\n")
    outside = write(tmp_path, "a.txt", "5 6\n")
    malformed = write(tmp_path, "bad.txt", "5 6\n# the edge, then a bad line\n0 1\n1 0\n")
    whole = write(tmp_path, "whole.txt", "0 1\n")
    empty = write(tmp_path, "empty.txt", "# no simplex\n")

    def audit(a_path, b_path):
        return run(capsys, "mv-audit", complex_path, "--subspace-a", a_path,
                   "--subspace-b", b_path, "--level", "ordinary")

    not_a = "input error: subspace A is not a subcomplex of the main complex\n"
    assert audit(outside, outside) == (4, "", not_a)
    assert audit(whole, outside) == (
        4, "", "input error: subspace B is not a subcomplex of the main complex\n")
    # the whole file is parsed first: a malformed line wins over a simplex outside K
    bad_line = (2, "", f"parse error: {malformed}:4: vertices must be strictly increasing, "
                       "got (1, 0)\n")
    assert audit(malformed, whole) == bad_line
    assert audit(whole, malformed) == bad_line
    # A is read and checked before B
    assert audit(outside, malformed) == (4, "", not_a)
    assert audit(malformed, outside) == bad_line
    # an empty membership file is a valid, empty subcomplex
    code, out, err = audit(empty, whole)
    assert (code, err) == (0, "") and out.endswith("law (exact): holds\n")


def _fixture_generators(cells, data):
    """Some of the cells, in any order, some twice: the lines of a membership file."""
    return data.draw(st.lists(st.sampled_from(cells), max_size=len(cells)))


_FILE_NUMBERS = itertools.count()


def _written_membership(directory, generators):
    path = directory / f"sub{next(_FILE_NUMBERS)}.txt"  # one new file per call
    path.write_text("".join(" ".join(map(str, s)) + " : 7\n" for s in generators),
                    encoding="utf-8")
    return path


def _as_oracle(sub, K):
    """(ordered cells, facet table) of a subcomplex, its cells K's own objects."""
    own = {s: s for s in K.simplices()}
    assert all(s is own[s] for s in sub.simplices())
    assert all(f is own[f] for facets in sub.facet_table.values() for f in facets)
    return sub.simplices(), sub.facet_table


@functools.cache
def _fixture_complexes():
    return [make_fixture(index)[1].X for index in range(64)]


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_membership_and_intersection_match_the_oracles(tmp_path, data):
    """On fixtures 0-63, a membership file closed inside X, and the
    intersection of two such subcomplexes, have the cells, the cell order and
    the facet table of the close-then-check and set-intersection oracles, made
    of X's own cells; a simplex outside X is refused by both."""
    for X in _fixture_complexes():
        cells = list(X.simplices())
        subs = []
        for _ in range(2):
            generators = _fixture_generators(cells, data)
            sub = cli.load_membership(_written_membership(tmp_path, generators), X)
            assert _as_oracle(sub, X) == close_then_check_membership(generators, X)
            subs.append(sub)
        assert _as_oracle(intersect(*subs), X) == set_intersection(*subs)
        stray = Simplex(data.draw(st.sampled_from([(0, 9), (9,), (0, 1, 2, 3), (2, 5, 6)])))
        if stray not in X:
            generators = _fixture_generators(cells, data) + [stray]
            with pytest.raises(NotSubcomplexError):
                close_then_check_membership(generators, X)
            with pytest.raises(NotSubcomplexError):
                cli.load_membership(_written_membership(tmp_path, generators), X)


def test_internal_fault_is_not_reported_as_input_error(data_dir, monkeypatch):
    # the system constructors validate the cover, so a representative that
    # leaves its space is a library fault: it raises instead of exiting 4
    real = PersistenceResult.representatives

    def leaking(self, k, u=None):
        outside = Simplex(range(10**6, 10**6 + k + 1))
        return [{**chain, outside: 1} for chain in real(self, k, u)]

    monkeypatch.setattr(PersistenceResult, "representatives", leaking)
    with pytest.raises((NotACycleError, RuntimeError)):
        main(_torus_audit_args(data_dir, "ordinary"))
    monkeypatch.undo()
    # so is a map over bars with an entry on a bar born after its source:
    # the persistent query whose group holds the source raises
    torus = torus_triad()
    probe = MayerVietorisSystem(torus.complex, torus.A, torus.B, filtration_from_morse(
        torus.complex, torus.function, torus.thresholds), 2)
    i, (t, s) = next((i, site) for i in range(len(probe._gaps))
                     for check, site in fault_sites(probe, i) if check == "birth")
    u, v = probe._bars[i][0][s], probe._bars[i + 1][0][t]
    real_map_at = MayerVietorisSystem.map_at

    def broken(self, gap, k):
        m = real_map_at(self, gap, k)
        return with_entry(m, t, s, 1, self.modulus) if (gap, k) == probe._gaps[i] else m

    monkeypatch.setattr(MayerVietorisSystem, "map_at", broken)
    labels = probe.filtration.thresholds
    with pytest.raises(RestrictionLeakError):
        main(_torus_audit_args(data_dir, "persistent", "--u", str(labels[u]), "--v",
                               str(labels[v]), "--thresholds", ",".join(map(str, labels))))


def test_persistent_needs_labels(data_dir, capsys):
    code, _, err = run(capsys, *_torus_audit_args(data_dir, "persistent"))
    assert code == 4 and "needs --u and --v" in err


def test_arbitrary_labels_are_spliced_into_the_filtration(data_dir, capsys):
    # any rational label addresses its sublevel, not just critical values;
    # the sublevels at 95 and 97 coincide, so this window is exact
    code, out, _ = run(capsys, *_torus_audit_args(
        data_dir, "persistent", "--u", "95", "--v", "97"))
    assert code == 0
    assert "law (order-2): holds" in out
    assert "note:" not in out


def test_labels_without_values_exit4(tmp_path, capsys):
    complex_path = write(tmp_path, "x.txt", "0 1\n")
    a_path = write(tmp_path, "a.txt", "0 1\n")
    code, _, err = run(capsys, "pair-audit", complex_path, "--subspace-a", a_path,
                       "--level", "persistent", "--u", "0", "--v", "1")
    assert code == 4 and "no values" in err


def test_pair_audit_genus2(data_dir, tmp_path, capsys):
    d = data_dir / "genus2"
    report_path = tmp_path / "pair.json"
    code, out, _ = run(capsys, "pair-audit", str(d / "complex.txt"),
                       "--subspace-a", str(d / "subspace_a.txt"),
                       "--level", "persistent", "--u", "190", "--v", "250",
                       "--json", str(report_path))
    assert code == 0
    assert "defects {'(k=1, A)': 1}" in out
    report = json.loads(report_path.read_text())
    assert report["persistent_dims"]["(X,A)"] == [0, 4, 0]
    assert report["persistent_dims"]["A"] == [1, 1, 0]
    assert report["persistent_dims"]["X"] == [1, 4, 0]


def test_pair_audit_a_empty_is_exact(tmp_path, capsys):
    complex_path = write(tmp_path, "x.txt", "0 1 2 : 1\n")
    a_path = write(tmp_path, "a.txt", "# empty subcomplex\n")
    code, out, _ = run(capsys, "pair-audit", complex_path, "--subspace-a", a_path,
                       "--level", "ordinary")
    assert code == 0
    assert "law (exact): holds" in out


def test_complex_file_round_trip_random(tmp_path):
    import random
    from fractions import Fraction
    from homaudit.cli import load_complex
    from homaudit.fixtures import complex_file_lines
    from randfix import random_complex, random_morse
    rng = random.Random(99)
    for i in range(8):
        K = random_complex(rng)
        f = random_morse(K, rng)
        # shift values to ugly rationals to exercise fraction round-tripping
        shifted = type(f)(K, {s: v + Fraction(1, 3) for s, v in f.items()})
        path = tmp_path / f"rt{i}.txt"
        path.write_text("\n".join(complex_file_lines(shifted, "round trip")) + "\n")
        K2, f2 = load_complex(path)
        assert K2 == K
        assert f2 is not None
        assert {s: f2(s) for s in K2.simplices()} == {s: shifted(s) for s in K.simplices()}


def test_json_reports_are_byte_stable(data_dir, tmp_path, capsys):
    first, second = tmp_path / "r1.json", tmp_path / "r2.json"
    args = _torus_audit_args(data_dir, "persistent", "--u", "95", "--v", "100")
    assert run(capsys, *args, "--json", str(first))[0] == 0
    assert run(capsys, *args, "--json", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()
    report = json.loads(first.read_text())
    assert json.loads(json.dumps(report)) == report  # lossless round-trip
    assert report["version"]
    for entry in report["inputs"].values():
        assert len(entry["sha256"]) == 64


_JSON_TEXT = st.text(st.characters(min_codepoint=0), max_size=6)  # control, astral, surrogate
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.sampled_from([0, 1, -1]), st.integers(),
    st.integers(10 ** 20, 10 ** 60).flatmap(lambda n: st.sampled_from([n, -n])), _JSON_TEXT)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.dictionaries(_JSON_TEXT, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
@example([True, 1, False, 0, None, {"": {}, "b": [], "a": [[]]}, ()])
@example({"é\u2028": "\x00\x1f\x7f\ud83d\ude00\U0001f600", "A": -10 ** 25, "B": (True,)})
def test_report_writer_matches_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)


def test_value_inheritance_takes_the_minimum_over_cofaces(tmp_path):
    from homaudit.cli import load_complex
    from homaudit.complexes import Simplex
    path = write(tmp_path, "mins.txt", "0 1 : 3\n0 2 : 2\n1 2 : 5\n0 1 2 : 6\n1 2 : 5\n")
    K, f = load_complex(Path(path))
    assert {s: f(s) for s in K.simplices(0)} == {
        Simplex((0,)): 2, Simplex((1,)): 3, Simplex((2,)): 2}
    assert f(Simplex((1, 2))) == 5  # an explicit value beats the triangle's 6


def test_simplex_valued_twice_differently_exit2(tmp_path, capsys):
    path = write(tmp_path, "twice.txt", "0 : 0\n1 : 0\n0 1 : 1\n# again\n0 1 : 5\n")
    code, out, err = run(capsys, "barcode", path)
    assert code == 2 and out == ""
    assert "twice.txt:5:" in err and "line 3" in err
    # an identical repeat, or a repeat without a value, is accepted
    path = write(tmp_path, "same.txt", "0 : 0\n1 : 0\n0 1 : 1\n0 1 : 1\n0 1\n")
    code, out, _ = run(capsys, "barcode", path, "--degree", "0")
    assert code == 0 and out.strip() == "degree 0: [0, 1) [0, inf)"


def test_oversized_values_are_parse_errors(tmp_path, capsys):
    for value in ("1e99999999", "1e5000", "7" * 4301, "1/0"):
        path = write(tmp_path, "big.txt", f"0 : {value}\n")
        code, _, err = run(capsys, "barcode", path)
        assert code == 2 and "big.txt:1:" in err
    path = write(tmp_path, "ok.txt", f"0 : 1e3\n1 : 25e-1\n0 1 : {'7' * 4300}\n")
    code, out, _ = run(capsys, "barcode", path, "--degree", "0")
    assert code == 0 and out.strip() == f"degree 0: [5/2, inf) [1000, {'7' * 4300})"


_DIGITS = st.text("0123456789", min_size=1, max_size=5)
_NUMERALS = st.one_of(
    _DIGITS,
    _DIGITS.map("000".__add__),  # leading zeros
    st.lists(_DIGITS, min_size=2, max_size=3).map("_".join),  # `_` separators
    st.sampled_from(["٣", "٣٤", "1٣", "²", "1²", "_1", "1_", "1__2", "", ".", "0x1"]),
    st.builds("{}.{}".format, _DIGITS, _DIGITS),
    st.builds("{}/{}".format, _DIGITS, _DIGITS),
    st.builds("{}{}{}{}".format, _DIGITS, st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
              st.integers(1000, 99999)),  # exponents of 4 and 5 digits
    st.sampled_from(["7" * 4300, "7" * 4301, "1" + "0" * 4300, "0" * 4300 + "1"]))
_VALUE_TEXTS = st.one_of(
    st.builds("{}{}{}{}".format, st.sampled_from(["", " ", "\t", "\u2003"]),
              st.sampled_from(["", "+", "-", "+-", "--"]), _NUMERALS,
              st.sampled_from(["", " ", "\n"])),
    st.text(max_size=6))


def _parsed(parse, text):
    try:
        value = parse(text)
    except Exception as exc:
        return type(exc)
    return type(value), value


@pytest.mark.parametrize("max_str_digits", [None, 0])
@settings(max_examples=300, deadline=None)
@given(_VALUE_TEXTS)
@example(" -0042 ")
@example("7" * 4300)
@example("7" * 4301)
@example("٣")
@example("²")
@example("1e9999")
@example("1e10000")
def test_rational_matches_the_fraction_oracle(max_str_digits, text):
    """Integral text skips `Fraction`, with the same value, type and error
    class as the `Fraction` path; with Python's own digit limit lifted, only
    the 4,300-digit bound stops a long integer."""
    limit = sys.get_int_max_str_digits()
    if max_str_digits is not None:
        sys.set_int_max_str_digits(max_str_digits)
    try:
        assert _parsed(_rational, text) == _parsed(fraction_rational, text)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("label", ["abc", "1/0", "1e5000"])
def test_bad_audit_label_exit4(data_dir, capsys, label):
    code, out, err = run(capsys, *_torus_audit_args(data_dir, "ordinary", "--u", label))
    assert code == 4 and out == ""
    assert f"--u must be a rational, got {label!r}" in err
    code, _, err = run(capsys, *_torus_audit_args(
        data_dir, "persistent", "--u", "95", "--v", label))
    assert code == 4 and "--v must be a rational" in err


def test_negative_degree_exit4(data_dir, capsys):
    code, out, err = run(capsys, "barcode", str(data_dir / "torus" / "complex.txt"),
                         "--degree", "-1")
    assert code == 4 and out == "" and "--degree must be non-negative" in err


def test_unknown_label_is_input_error_but_other_key_errors_propagate(monkeypatch, capsys,
                                                                     data_dir):
    from homaudit import cli
    from homaudit.morse import UnknownLabelError, sublevel_filtration

    def drop_labels(K, f, thresholds, extra_labels):  # a filtration without --u
        return sublevel_filtration(K, f, thresholds or [0])

    monkeypatch.setattr(cli, "_build_filtration", drop_labels)
    code, _, err = run(capsys, *_torus_audit_args(data_dir, "ordinary", "--u", "7/3"))
    assert code == 4 and "no filtration step labelled 7/3" in err
    assert issubclass(UnknownLabelError, KeyError)

    def internal_bug(*_):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "ordinary_sequence", internal_bug)
    with pytest.raises(KeyError, match="internal"):
        main(_torus_audit_args(data_dir, "ordinary"))


_HEADS = st.one_of(
    st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True).map(
        lambda vs: " ".join(map(str, sorted(vs)))),
    st.sampled_from(["", "-1", "1 0", "1 1", "x", "01 2", "1_0"]))
_VALUES = st.sampled_from(["0", "1", "2", "5/2", "-1.5", "1e3", "1e5000", "9" * 4000 + "e999",
                           "1/0", "x", "", "1 2"])
_LINES = st.builds(lambda head, sep, value: head + sep + value,
                   _HEADS, st.sampled_from(["", " : ", ":", "::", " # "]), _VALUES)
# structured files reach the algebra; raw text exercises the tokenizer
_FILES = st.one_of(st.lists(_LINES, max_size=8).map("\n".join), st.text(max_size=20))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_FILES)
def test_barcode_never_raises_on_any_complex_file(capsys, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["barcode", str(path)]) in (0, 2, 4)
    capsys.readouterr()


def test_negative_labels_in_the_equals_form(tmp_path, capsys):
    # a hollow triangle from -5 on, filled at -1; negative fractions and
    # lists are attached with '=', negative integers also work apart
    complex_path = write(tmp_path, "x.txt", "0 : -13/2\n1 : -6\n2 : -6\n0 1 : -6\n"
                                            "1 2 : -5\n0 2 : -5\n0 1 2 : -1\n")
    code, out, _ = run(capsys, "barcode", complex_path, "--thresholds=-13/2,-5,-1")
    assert code == 0
    assert out == "degree 0: [-13/2, inf)\ndegree 1: [-5, -1)\ndegree 2:\n"
    a_path = write(tmp_path, "a.txt", "0\n")
    code, out, _ = run(capsys, "pair-audit", complex_path, "--subspace-a", a_path,
                       "--level", "persistent", "--u=-13/2", "--v", "-5",
                       "--thresholds=-13/2,-5,-1")
    assert code == 0
    assert "dim H^{-13/2,-5}(X) by degree: [1, 0, 0]" in out
    assert "dim H^{-13/2,-5}((X,A)) by degree: [0, 0, 0]" in out


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), strict=st.booleans(), data=st.data())
def test_file_values_match_inheritance_by_faces(seed, strict, data):
    """Values on some cells of a random complex, the maximal cells listed
    bare otherwise: `load_complex` gives every cell the value, or names in
    its error the cell, that inheritance by each valued simplex's faces
    gives, and that the dict walk down the facet table gives."""
    K = random_complex(random.Random(seed))
    valued = data.draw(st.lists(st.booleans(), min_size=len(K), max_size=len(K)))
    assume(any(valued))
    values = data.draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                                min_size=len(K), max_size=len(K)))
    explicit = {s: v for s, keep, v in zip(K.simplices(), valued, values) if keep}
    lines = [f"{' '.join(map(str, s))} : {v}" for s, v in explicit.items()]
    lines += [" ".join(map(str, s)) for s in K.maximal_simplices() if s not in explicit]
    try:
        want = faces_inherited_values(K, explicit, strict)
    except ValueError as exc:
        want = str(exc)
    try:
        walked = dict_inherited_values(K, explicit, strict)
    except ValueError as exc:
        walked = str(exc)
    assert walked == want
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "partial.txt"
        path.write_text("\n".join(data.draw(st.permutations(lines))), encoding="utf-8")
        try:
            L, f = load_complex(path, strict)
            assert L == K
            got = {s: f(s) for s in K.simplices()}
        except ParseError as exc:
            got = exc.message
    assert got == want


@pytest.mark.parametrize("level,extra,message", [
    ("persistent", ("--u", "100", "--v", "95"), "--u must not exceed --v"),
    ("ordinary", ("--thresholds", ","), "empty threshold list"),
])
def test_audit_option_contracts_exit_4(data_dir, capsys, level, extra, message):
    """A window with u after v, and a threshold list with no label, are
    input errors (exit 4) with their own line and no output."""
    assert run(capsys, *_torus_audit_args(data_dir, level, *extra)) == \
        (4, "", f"input error: {message}\n")


def test_morse_check_without_values_exit_4(tmp_path, capsys):
    path = write(tmp_path, "bare.txt", "0 1 2\n")
    assert run(capsys, "morse-check", path) == \
        (4, "", "input error: morse-check needs a complex file with values\n")


@pytest.mark.parametrize("command", ["betti", "morse-check", "barcode"])
def test_unreadable_complex_path_exit_2(tmp_path, capsys, command):
    """A complex path that is missing or is a directory is a parse error
    (exit 2) naming the path, with no output."""
    for path in (tmp_path / "missing.txt", tmp_path):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, ""), path
        assert err.startswith(f"parse error: {path}: cannot read file: ") and \
            err.count("\n") == 1, err
