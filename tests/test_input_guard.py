"""The CLI input layer does each piece of work once.

`main` builds its argument parser once per process and finds the command to
run by name at call time, so a function bound to `cli.cmd_*` after the
parser is cached (a tracer's wrapper, a test double) is the one called, and
an argparse exit (`--version`, a usage error, a bad `--field`) leaves the
next command's output as a fresh interpreter gives it. A complex file whose
values are all integers is loaded, and its `MorseFunction` and sublevel
filtration built, without constructing one `Fraction`. Loading a complex
enumerates each cell's facets once, in one face closure that writes the facet
table; membership files and intersections are taken from the main complex's
table without the validating constructor; an audit reads each input file
once, its report digests included; and the report is written without
`json.dumps`. An audit builds the main complex's integer index of its
incidences once, and no other complex's; no persistence build compares two
simplices, so none sorts (step, simplex) pairs; and a command on a file
whose function is not Morse builds no `MorseViolation` unless it lists them.
"""

import json
import pathlib
from fractions import Fraction

import pytest

from homaudit import cli, complexes, morse
from homaudit.complexes import Simplex, SimplicialComplex, intersect
from homaudit.morse import sublevel_filtration
from homaudit.persistence import PersistenceResult

from test_cli import _run_python, _torus_audit_args


def test_main_builds_the_parser_once(monkeypatch, data_dir, capsys):
    built, build = [], cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    argv = ["betti", str(data_dir / "torus" / "complex.txt")]
    for _ in range(5):
        assert cli.main(argv) == 0
    assert built == [1]
    assert capsys.readouterr().out == "b0=1 b1=2 b2=1\n" * 5


def _count_fractions(monkeypatch) -> list:
    made, new = [], Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return made


def test_an_integer_valued_file_builds_no_fraction(monkeypatch, data_dir, tmp_path):
    signed = tmp_path / "signed.txt"
    signed.write_text("0 1 2 : 7\n0 1 : +3\n0 : 0\n1 : 1\n2 : -2\n1 2 : 005\n",
                      encoding="utf-8")
    made = _count_fractions(monkeypatch)
    for path in (data_dir / "torus" / "complex.txt", data_dir / "genus2" / "complex.txt",
                 signed):
        K, f = cli.load_complex(path)
        filtration = sublevel_filtration(K, f, {v for _, v in f.items()})
        filtration.index_of(f.max_value)
    assert made == []
    fractional = tmp_path / "fractional.txt"
    fractional.write_text("0 : 5/2\n", encoding="utf-8")
    cli.load_complex(fractional)
    assert made, "the counter saw no Fraction on the Fraction path"


def test_a_command_bound_after_caching_is_the_one_called(monkeypatch, data_dir, capsys):
    path = str(data_dir / "torus" / "complex.txt")
    assert cli.main(["barcode", path, "--degree", "0"]) == 0
    parser = cli._parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_barcode", lambda args: calls.append(args) or 17)
    assert cli.main(["barcode", path, "--degree", "0"]) == 17
    assert [(a.command, a.complex, a.degree) for a in calls] == [("barcode", path, 0)]
    assert cli._parser() is parser
    capsys.readouterr()


@pytest.fixture(scope="module")
def fresh_run(data_dir, tmp_path_factory):
    """Exit code, stdout and report bytes of a persistent audit in a new interpreter."""
    report = tmp_path_factory.mktemp("fresh") / "report.json"
    argv = _torus_audit_args(data_dir, "persistent", "--u", "95", "--v", "100")
    done = _run_python("import sys; from homaudit.cli import main; sys.exit(main(sys.argv[1:]))",
                       *argv, "--json", str(report))
    return argv, (done.returncode, done.stdout, report.read_bytes())


@pytest.mark.parametrize("exit_argv", [["--version"], ["mv-audit", "x.txt"],
                                       ["betti", "x.txt", "--field", "4"]],
                         ids=["version", "usage", "field"])
def test_a_parser_exit_leaves_the_next_command_as_fresh(exit_argv, fresh_run, tmp_path,
                                                        capsys):
    argv, want = fresh_run
    parser = cli._parser()
    with pytest.raises(SystemExit):
        cli.main(exit_argv)
    capsys.readouterr()
    report = tmp_path / "report.json"
    code = cli.main(argv + ["--json", str(report)])
    assert (code, capsys.readouterr().out, report.read_bytes()) == want
    assert cli._parser() is parser


def _refuse(monkeypatch, holder, name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} called")
    monkeypatch.setattr(holder, name, refused)


def test_loading_a_complex_enumerates_each_cells_facets_once(monkeypatch, data_dir, tmp_path):
    closures, real = [], complexes._face_closure

    def counting(cells):
        cells = list(cells)
        closures.append(cells)
        return real(cells)

    monkeypatch.setattr(complexes, "_face_closure", counting)
    _refuse(monkeypatch, complexes, "combinations")
    _refuse(monkeypatch, SimplicialComplex, "__init__")
    _refuse(monkeypatch, complexes.Simplex, "facets")
    bare = tmp_path / "bare.txt"
    bare.write_text("0 1 2\n1 2 3\n2 3\n", encoding="utf-8")
    for path, lines in ((data_dir / "torus" / "complex.txt", 54), (bare, 3)):
        closures.clear()
        K, _ = cli.load_complex(path)
        assert len(closures) == 1 and len(closures[0]) == lines
        assert K.n_cells(0) > 0


def test_membership_and_intersection_skip_the_validating_constructor(monkeypatch, data_dir):
    torus = data_dir / "torus"
    K, _ = cli.load_complex(torus / "complex.txt")
    _refuse(monkeypatch, SimplicialComplex, "__init__")
    _refuse(monkeypatch, complexes, "_face_closure")
    A = cli.load_membership(torus / "subspace_a.txt", K)
    B = cli.load_membership(torus / "subspace_b.txt", K)
    assert len(intersect(A, B)) == len(A) + len(B) - len(K)


def test_an_audit_with_a_report_reads_each_input_once(monkeypatch, data_dir, tmp_path, capsys):
    opened, real = [], pathlib.Path.open

    def recording(self, mode="r", *args, **kwargs):
        opened.append((str(self), "r" in mode))
        return real(self, mode, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "open", recording)
    report = tmp_path / "report.json"
    argv = _torus_audit_args(data_dir, "persistent", "--u", "95", "--v", "100")
    assert cli.main(argv + ["--json", str(report)]) == 0
    reads = sorted(path for path, read in opened if read)
    inputs = [argv[1], argv[3], argv[5]]
    assert reads == sorted(inputs)
    monkeypatch.undo()
    written = json.loads(report.read_text(encoding="utf-8"))
    assert [entry["path"] for entry in written["inputs"].values()] == inputs
    capsys.readouterr()


def test_a_report_is_written_without_json_dumps(monkeypatch, data_dir, tmp_path, capsys):
    for name in ("dumps", "dump"):
        _refuse(monkeypatch, json, name)
    for name in ("encode", "iterencode"):
        _refuse(monkeypatch, json.JSONEncoder, name)
    reports = []
    for i, argv in enumerate((["barcode", str(data_dir / "genus2" / "complex.txt")],
                              _torus_audit_args(data_dir, "module"))):
        reports.append(tmp_path / f"r{i}.json")
        assert cli.main(argv + ["--json", str(reports[-1])]) == 0
    monkeypatch.undo()
    for path in reports:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    capsys.readouterr()


def test_an_audit_builds_the_main_complexs_index_once(monkeypatch, data_dir, capsys):
    """Classification and entry steps read one index, the main complex's,
    built at its first use; no other complex (A, B, A∩B) builds one."""
    loaded, built, used = [], [], []
    real_load, real_index = cli.load_complex, SimplicialComplex._facet_index

    def load(*args, **kwargs):
        loaded.append(real_load(*args, **kwargs))
        return loaded[-1]

    def index(K):
        (built if K._incidences is None else used).append(K)
        return real_index(K)

    monkeypatch.setattr(cli, "load_complex", load)
    monkeypatch.setattr(SimplicialComplex, "_facet_index", index)
    for level in ("module", "persistent"):
        for seen in (loaded, built, used):
            seen.clear()
        extra = ["--u", "95", "--v", "100"] if level == "persistent" else []
        assert cli.main(_torus_audit_args(data_dir, level, *extra)) == 0
        K = loaded[0][0]
        assert [id(L) for L in built] == [id(K)]
        assert all(L is K for L in used) and used  # the classification's, then the steps'
    capsys.readouterr()


def test_no_persistence_build_compares_two_simplices(monkeypatch, data_dir, capsys):
    inside, real = [], PersistenceResult.__init__

    def less(a, b):
        if inside:
            raise AssertionError(f"a persistence build compared {a} with {b}")
        return tuple.__lt__(a, b)

    def build(self, *args, **kwargs):
        inside.append(self)
        try:
            real(self, *args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(Simplex, "__lt__", less, raising=False)
    monkeypatch.setattr(PersistenceResult, "__init__", build)
    for argv in (["barcode", str(data_dir / "genus2" / "complex.txt")],
                 _torus_audit_args(data_dir, "module"),
                 ["pair-audit", str(data_dir / "genus2" / "complex.txt"), "--subspace-a",
                  str(data_dir / "genus2" / "subspace_a.txt"), "--level", "module"]):
        assert cli.main(argv) in (0, 1)
    assert Simplex((0, 2)) < Simplex((1,))  # the patch compares as tuples outside a build
    capsys.readouterr()


NON_MORSE = """\
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

NON_MORSE_AUDIT = """\
mayer-vietoris sequence audit, level graded-module, field F_2
  k=3 X      dim=0 im=0 ker=0 defect=0 order2=yes exact=yes
  k=2 A∩B    dim=0 im=0 ker=0 defect=0 order2=yes exact=yes
  k=2 A⊕B    dim=0 im=0 ker=0 defect=0 order2=yes exact=yes
  k=2 X      dim=0 im=0 ker=0 defect=0 order2=yes exact=yes
  k=1 A∩B    dim=0 im=0 ker=0 defect=0 order2=yes exact=yes
  k=1 A⊕B    dim=0 im=0 ker=0 defect=0 order2=yes exact=yes
  k=1 X      dim=0 im=0 ker=0 defect=0 order2=yes exact=yes
  k=0 A∩B    dim=3 im=0 ker=0 defect=0 order2=yes exact=yes
  k=0 A⊕B    dim=6 im=3 ker=3 defect=0 order2=yes exact=yes
  k=0 X      dim=3 im=3 ker=3 defect=0 order2=yes exact=yes
law (exact): holds
"""


def test_a_non_morse_file_builds_no_violation_unless_listed(monkeypatch, tmp_path, capsys):
    """barcode and mv-audit fall back to every distinct value, as before, with
    no `MorseViolation` built; morse-check still lists all six."""
    paths = {}
    for name, text in (("c", NON_MORSE), ("a", "0 1 2\n"), ("b", "1 2 3\n")):
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text, encoding="utf-8")
    made, real = [], morse.MorseViolation.__init__

    def counting(self, *args, **kwargs):
        made.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(morse.MorseViolation, "__init__", counting)
    report = tmp_path / "report.json"
    assert cli.main(["barcode", str(paths["c"]), "--json", str(report)]) == 0
    assert capsys.readouterr().out == "degree 0: [0, inf)\ndegree 1:\ndegree 2:\n"
    assert json.loads(report.read_text(encoding="utf-8"))["thresholds"] == ["0", "1", "2"]
    assert cli.main(["mv-audit", str(paths["c"]), "--subspace-a", str(paths["a"]),
                     "--subspace-b", str(paths["b"]), "--level", "module"]) == 0
    assert capsys.readouterr().out == NON_MORSE_AUDIT
    assert made == []
    assert cli.main(["morse-check", str(paths["c"])]) == 3
    assert len(made) == 6 and capsys.readouterr().out.count(" at (") == 6
