"""The three workloads: inputs made from the seed, operations, and checks.

Every workload class has
- `setup()`: make the inputs from the seed, write the files, check them,
  warm up. The runner times it and repeats it;
- `rounds()`: an endless iterator of rounds, each a list of `Op`. The same
  seed gives the same rounds;
- `largest`: the class of the operation reported as `largest_op_s`.

An `Op` runs one operation and returns its outputs. Its `check` turns them
into an error message, or None when they are right. Checks run outside the
operation's timed interval.

The program is always reached through its module attributes
(`sequences.persistent_sequence`, not a name bound at import), so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

from homaudit import cli, complexes, linalg, morse, persistence, sequences
from homaudit.complexes import Simplex

import gridgen

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SWEEP_BATCH = 500          # the acceptance batch of tests/randfix.py
SWEEP_SEED_BASE = 10_000   # its seed base: fixture i uses Random(10_000 + i)
SWEEP_PRIMES = (2, 3, 5)


@dataclass
class Op:
    cls: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# cli

TORUS_T = "0,6,8,79,95,100"
GENUS2_T = "0,90,190,250,300"


def data_commands() -> list[tuple[str, list[str], bool]]:
    """(name, argv, writes JSON) for every README command and its variants."""
    t, g = DATA / "torus", DATA / "genus2"
    mv = ["mv-audit", str(t / "complex.txt"), "--subspace-a", str(t / "subspace_a.txt"),
          "--subspace-b", str(t / "subspace_b.txt")]
    pair = ["pair-audit", str(g / "complex.txt"), "--subspace-a", str(g / "subspace_a.txt")]
    return [
        ("betti-torus", ["betti", str(t / "complex.txt")], False),
        ("betti-genus2", ["betti", str(g / "complex.txt")], False),
        ("morse-check-torus", ["morse-check", str(t / "complex.txt")], False),
        ("morse-check-genus2", ["morse-check", str(g / "complex.txt")], False),
        ("barcode-torus", ["barcode", str(t / "complex.txt"), "--thresholds", TORUS_T], False),
        ("barcode-torus-json", ["barcode", str(t / "complex.txt"), "--thresholds", TORUS_T],
         True),
        ("barcode-torus-b", ["barcode", str(t / "complex_b.txt"), "--thresholds", TORUS_T,
                             "--degree", "1"], False),
        ("barcode-genus2-json", ["barcode", str(g / "complex.txt")], True),
        ("mv-persistent-torus", mv + ["--level", "persistent", "--u", "95", "--v", "100"],
         False),
        ("mv-persistent-torus-json", mv + ["--level", "persistent", "--u", "95", "--v", "100"],
         True),
        ("mv-module-torus", mv + ["--level", "module", "--thresholds", TORUS_T], False),
        ("mv-module-torus-json", mv + ["--level", "module", "--thresholds", TORUS_T], True),
        ("mv-ordinary-torus-json", mv + ["--level", "ordinary", "--u", "95"], True),
        ("pair-persistent-genus2", pair + ["--level", "persistent", "--u", "190", "--v", "250",
                                           "--thresholds", GENUS2_T], False),
        ("pair-persistent-genus2-json", pair + ["--level", "persistent", "--u", "190",
                                                "--v", "250", "--thresholds", GENUS2_T], True),
        ("pair-module-genus2", pair + ["--level", "module", "--thresholds", GENUS2_T], False),
        ("pair-module-genus2-json", pair + ["--level", "module"], True),
    ]


# H_k at the last step of a grid torus system, k = 0..3: the torus, annuli,
# two circles, and the torus relative to an annulus (Lefschetz duality gives
# (0, 1, 1)).
LAST_STEP_DIMS = {"X": (1, 2, 1, 0), "A": (1, 1, 0, 0), "B": (1, 1, 0, 0),
                  "A∩B": (2, 2, 0, 0), "A⊕B": (2, 2, 0, 0), "(X,A)": (0, 1, 1, 0)}

# the shipped counterexamples: persistent-level defect 1 at these positions
FIXTURE_DEFECTS = {"mv-persistent-torus-json": ("A∩B", 1),
                   "pair-persistent-genus2-json": ("A", 1)}


def run_cli(argv: list[str], json_path: Optional[Path]) -> tuple[int, str, Optional[str]]:
    if json_path is not None:
        json_path.unlink(missing_ok=True)
        argv = argv + ["--json", str(json_path)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    report = json_path.read_text(encoding="utf-8") if json_path is not None else None
    return code, out.getvalue(), report


def normalized_report(text: Optional[str], keep_inputs: bool = True) -> Optional[dict]:
    """The report without `version`, with input paths cut to their file names."""
    if text is None:
        return None
    report = json.loads(text)
    report.pop("version", None)
    if keep_inputs:
        for entry in report["inputs"].values():
            entry["path"] = Path(entry["path"]).name
    else:
        report.pop("inputs")
    return report


def cli_fingerprint(outcome) -> dict:
    code, stdout, report = outcome
    return {"exit": code, "stdout": hashlib.sha256(stdout.encode()).hexdigest(),
            "report": None if report is None else digest(normalized_report(report))}


def grid_mv_dims_at_end(report: dict) -> Optional[str]:
    """At the last step X is the torus, A and B annuli, A∩B two circles."""
    for row in report["positions"]:
        want = LAST_STEP_DIMS[row["term"]][row["degree"]]
        if row["steps"][-1]["dim"] != want:
            return f"last-step dim of ({row['term']}, k={row['degree']}) is " \
                   f"{row['steps'][-1]['dim']}, not {want}"
    return None


class CliWorkload:
    """One client calling `homaudit.cli.main` in-process, closed loop."""

    name = "cli"
    largest = "mv-module-grid-inherited"

    def __init__(self, seed: int, tiny: bool):
        self.seed, self.grid_n = seed, 4 if tiny else 8

    def setup(self, tmp: Path) -> None:
        reference = load_reference()["cli"]
        grid = gridgen.grid_torus(self.grid_n, self.seed)
        half = self.grid_n // 2
        files = {
            "grid-explicit.txt": gridgen.explicit_lines(grid),
            "grid-inherited.txt": gridgen.inherited_lines(grid),
            "grid-expanded.txt": gridgen.expanded_lines(grid),
            "grid-a.txt": gridgen.membership_lines(grid.band(0, half), "columns 0 .. n/2-1"),
            "grid-b.txt": gridgen.membership_lines(grid.band(half, self.grid_n - half),
                                                   "columns n/2 .. n-1"),
        }
        for name, lines in files.items():
            (tmp / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        tri_values = sorted(grid.values[t] for t in grid.triangles)
        inherited_t = ",".join(str(tri_values[len(tri_values) * q // 4 - 1])
                               for q in (1, 2, 3, 4))
        crit = grid.critical_values()
        bars = {0: [crit[0]], 1: [crit[1], crit[2]], 2: [crit[3]]}
        self.grid_barcode = "".join(
            f"degree {k}: " + " ".join(f"[{b}, inf)" for b in bars[k]) + "\n" for k in range(3))
        cells = {k: sorted(c for c in grid.critical if len(c) == k + 1) for k in range(3)}
        self.grid_morse = "OK: discrete Morse function\n" + "".join(
            f"critical {k}-cells ({len(cells[k])}): " + " ".join(map(str, cells[k])) + "\n"
            for k in range(3)) + ("perfect: yes (critical counts [1, 2, 1], "
                                 "betti [1, 2, 1] over F_2)\n")

        def mv(path):
            return ["mv-audit", str(tmp / path), "--subspace-a", str(tmp / "grid-a.txt"),
                    "--subspace-b", str(tmp / "grid-b.txt"), "--level", "module"]

        self.commands = [(name, argv, json_out, self._reference_check(name, reference[name]))
                         for name, argv, json_out in data_commands()]
        self.commands += [
            ("morse-check-grid-explicit", ["morse-check", str(tmp / "grid-explicit.txt")],
             False, self._check_grid_morse),
            ("morse-check-grid-inherited", ["morse-check", str(tmp / "grid-inherited.txt")],
             False, self._expanded_check(tmp, ["morse-check", str(tmp / "grid-expanded.txt")],
                                         False)),
            ("barcode-grid-explicit", ["barcode", str(tmp / "grid-explicit.txt")], False,
             self._check_grid_barcode),
            ("barcode-grid-inherited", ["barcode", str(tmp / "grid-inherited.txt"),
                                        "--thresholds", inherited_t], True,
             self._expanded_check(tmp, ["barcode", str(tmp / "grid-expanded.txt"),
                                        "--thresholds", inherited_t], True)),
            ("mv-module-grid-explicit", mv("grid-explicit.txt"), True,
             self._check_grid_mv),
            ("mv-module-grid-inherited", mv("grid-inherited.txt") + ["--thresholds",
                                                                     inherited_t], False,
             self._expanded_check(tmp, mv("grid-expanded.txt") + ["--thresholds", inherited_t],
                                  False)),
        ]
        self.tmp = tmp
        code, _, _ = run_cli(["betti", str(DATA / "torus" / "complex.txt")], None)
        if code != 0:
            raise RuntimeError("warm-up command failed")

    @staticmethod
    def _reference_check(name: str, expected: dict):
        def check(outcome):
            got = cli_fingerprint(outcome)
            if got != expected:
                return f"output differs from the reference: {got}"
            if name in FIXTURE_DEFECTS:
                term, degree = FIXTURE_DEFECTS[name]
                row = next(r for r in json.loads(outcome[2])["positions"]
                           if r["term"] == term and r["degree"] == degree)
                if row["defect"] != 1:
                    return f"defect at (k={degree}, {term}) is {row['defect']}, not 1"
            return None
        return check

    def _check_grid_morse(self, outcome):
        code, stdout, _ = outcome
        if code != 0 or stdout != self.grid_morse:
            return f"exit {code}, morse-check {stdout!r} instead of {self.grid_morse!r}"
        return None

    def _check_grid_barcode(self, outcome):
        code, stdout, _ = outcome
        if code != 0 or stdout != self.grid_barcode:
            return f"exit {code}, barcode {stdout!r} instead of {self.grid_barcode!r}"
        return None

    @staticmethod
    def _check_grid_mv(outcome):
        code, stdout, report = outcome
        verdict = json.loads(report)["verdict"]
        if code != 0 or not stdout.endswith("law (exact): holds\n") or not (
                verdict["holds"] and verdict["exact"]):
            return f"module-level exactness failed: exit {code}, verdict {verdict}"
        return grid_mv_dims_at_end(json.loads(report))

    def _expanded_check(self, tmp: Path, expanded_argv: list[str], json_out: bool):
        """Inherited values must give what the file with every value written
        out gives; that run happens once, at the first check."""
        expected = []

        def check(outcome):
            if not expected:
                path = tmp / "expanded.json" if json_out else None
                code, stdout, report = run_cli(expanded_argv, path)
                expected.append((code, stdout, normalized_report(report, keep_inputs=False)))
            code, stdout, report = outcome
            got = (code, stdout, normalized_report(report, keep_inputs=False))
            if got != expected[0]:
                return "inherited-value file disagrees with its written-out twin"
            return None
        return check

    def rounds(self) -> Iterator[list[Op]]:
        rng = random.Random(self.seed)
        while True:
            order = list(self.commands)
            rng.shuffle(order)
            yield [self._op(*cmd) for cmd in order]

    def _op(self, name, argv, json_out, check) -> Op:
        path = self.tmp / f"{name}.json" if json_out else None
        return Op(name, lambda: run_cli(argv, path), check)


# ---------------------------------------------------------------------------
# sweep

def load_randfix():
    """tests/randfix.py, imported read-only by path."""
    spec = importlib.util.spec_from_file_location("randfix", ROOT / "tests" / "randfix.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fixture_inputs(randfix, index: int):
    """The inputs of acceptance fixture `index`, drawn exactly as
    randfix.make_fixture draws them, without building the system."""
    rng = random.Random(SWEEP_SEED_BASE + index)
    K = randfix.random_complex(rng, max_simplices=(14, 18, 21, 25)[index % 4])
    f = randfix.random_morse(K, rng)
    p = SWEEP_PRIMES[index % len(SWEEP_PRIMES)]
    if index % 2 == 0:
        return ("triad", K, f, p) + randfix.random_triad(K, rng)
    return ("pair", K, f, p, randfix.random_subcomplex(K, rng))


def audit_rows(aud) -> list:
    rows = []
    for pos in aud.positions:
        row = [pos.term, pos.degree, pos.dim, pos.dim_image_in, pos.dim_kernel_out,
               pos.order2, pos.exact, pos.defect]
        if pos.steps is not None:
            row.append([[s.step, s.dim, s.dim_image_in, s.dim_kernel_out, s.order2,
                         s.exact, s.defect] for s in pos.steps])
        rows.append(row)
    return rows


def verify_fixture(kind, K, f, p, *cover) -> tuple[list[str], list]:
    """Criteria 4-7 of the acceptance suite on one fixture: broken laws, and
    every audit tuple and bar for the digest."""
    filt = morse.filtration_from_morse(K, f)
    if kind == "triad":
        system = sequences.MayerVietorisSystem(K, cover[0], cover[1], filt, p)
        results = [system.RX, system.RA, system.RB, system.RAB]
    else:
        system = sequences.PairSystem(K, cover[0], filt, p)
        results = [system.RX, system.RA, system.RXA]
    n = system.n_steps
    broken, record = [], []
    for u in range(n):                                        # criterion 4
        for v in range(u, n):
            _, aud = sequences.persistent_sequence(system, u, v)
            record.append(["persistent", u, v, audit_rows(aud)])
            if not aud.order2:
                broken.append(f"order 2 fails at ({u}, {v})")
    _, aud = sequences.module_sequence(system)                # criterion 5
    record.append(["module", audit_rows(aud)])
    if not aud.exact:
        broken.append("module sequence not exact")
    for u in range(n):                                        # criterion 6
        _, aud = sequences.ordinary_sequence(system, u)
        record.append(["ordinary", u, audit_rows(aud)])
        if not aud.exact:
            broken.append(f"ordinary sequence at {u} not exact")
        for v in range(u, n):
            if sequences.check_squares(system, u, v):
                broken.append(f"squares between {u} and {v} do not commute")
    for R in results:                                         # criterion 7
        for k in range(R.max_degree + 1):
            bars = persistence.barcode(R, k)
            record.append(["bars", k, [[iv.birth, iv.death] for iv in bars]])
            for u in range(n):
                for v in range(u, n):
                    rank = linalg.dense_rank(R.induced_matrix(k, u, v), R.modulus)
                    if rank != bars.count_containing(u, v):
                        broken.append(f"barcode disagrees with rank at k={k} ({u}, {v})")
    return broken, record


class SweepWorkload:
    """The acceptance batch of tiny triads and pairs, criteria 4-7 per fixture.

    The fixtures are a prefix of the acceptance batch, the same for every
    seed. A round is one pass over all of them, in an order the seed
    shuffles, so runs of different seeds, made of whole rounds, do the same
    mix of work.
    """

    name = "sweep"
    largest = "fixture-25"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.pool_size = 4 if tiny else 64

    def setup(self, tmp: Path) -> None:
        self.reference = load_reference()["sweep"]
        randfix = load_randfix()
        self.fixtures = [(i, fixture_inputs(randfix, i)) for i in range(self.pool_size)]
        broken, _ = verify_fixture(*self.fixtures[0][1])
        if broken:
            raise RuntimeError(f"warm-up fixture failed: {broken}")

    def rounds(self) -> Iterator[list[Op]]:
        rng = random.Random(self.seed)
        while True:
            order = list(self.fixtures)
            rng.shuffle(order)
            yield [self._op(index, inputs) for index, inputs in order]

    def _op(self, index: int, inputs) -> Op:
        expected = self.reference[index]

        def check(outcome):
            broken, record = outcome
            if broken:
                return f"fixture {index}: {broken[0]}"
            if digest(record) != expected:
                return f"fixture {index}: audit digest differs from the reference"
            return None
        size = (14, 18, 21, 25)[index % 4]
        return Op(f"fixture-{size}", lambda: verify_fixture(*inputs), check)


# ---------------------------------------------------------------------------
# grid

@dataclass
class GridInput:
    grid: gridgen.GridTorus
    K: complexes.SimplicialComplex
    f: morse.MorseFunction
    thresholds: list


def build_grid(n: int, seed: int) -> GridInput:
    grid = gridgen.grid_torus(n, seed)
    K = complexes.SimplicialComplex(Simplex(s) for s in grid.values)
    f = morse.MorseFunction(K, {Simplex(s): v for s, v in grid.values.items()})
    return GridInput(grid, K, f, gridgen.thresholds(grid))


def expected_bars(grid: gridgen.GridTorus) -> list[list[tuple[str, None]]]:
    """A perfect function's bars: each critical cell is born and never dies."""
    crit = [str(v) for v in grid.critical_values()]
    return [[(crit[0], None)], [(crit[1], None), (crit[2], None)], [(crit[3], None)]]


def torus_rung(g: GridInput, p: int):
    filt = morse.filtration_from_morse(g.K, g.f, g.thresholds)
    R = persistence.compute_persistence(filt, p)
    return [[(iv.birth_label, iv.death_label) for iv in persistence.barcode(R, k)]
            for k in range(3)]


def system_rung(g: GridInput, kind: str, cover, p: int):
    """A triad or pair on the torus: persistent audit on the last gap,
    module audit, ordinary audit of the full torus."""
    filt = morse.filtration_from_morse(g.K, g.f, g.thresholds)
    if kind == "triad":
        system = sequences.MayerVietorisSystem(g.K, cover[0], cover[1], filt, p)
    else:
        system = sequences.PairSystem(g.K, cover[0], filt, p)
    last = system.n_steps - 1
    _, persistent = sequences.persistent_sequence(system, last - 1, last)
    _, module = sequences.module_sequence(system)
    _, ordinary = sequences.ordinary_sequence(system, last)
    return persistent, module, ordinary


def check_system(outcome) -> Optional[str]:
    persistent, module, ordinary = outcome
    if not persistent.order2:
        return "persistent audit on the last gap is not of order 2"
    if not module.exact:
        return "module audit is not exact"
    if not ordinary.exact:
        return "ordinary audit of the full torus is not exact"
    for pos in ordinary.positions:
        if pos.dim != LAST_STEP_DIMS[pos.term][pos.degree]:
            return f"H_{pos.degree}({pos.term}) of the full torus has dim {pos.dim}"
    return None


class GridWorkload:
    """A size ladder of grid tori with perfect Morse functions."""

    name = "grid"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.sizes = (4, 6) if tiny else (6, 8, 10, 12, 14)
        self.system_n = 4 if tiny else 8
        self.largest = f"torus-{self.sizes[-1]}"

    def setup(self, tmp: Path) -> None:
        self.inputs = {}
        for n in sorted(set(self.sizes) | {self.system_n}):
            g = build_grid(n, self.seed * 1000 + n)
            if morse.validate_morse(g.K, g.f) != ():
                raise RuntimeError(f"n={n}: the generated function is not Morse")
            crit = morse.critical_cells(g.K, g.f)
            if len(crit) != 4 or set(crit) != {Simplex(c) for c in g.grid.critical}:
                raise RuntimeError(f"n={n}: {len(crit)} critical cells, not the 4 built")
            if complexes.betti_numbers(g.K, 2) != [1, 2, 1]:
                raise RuntimeError(f"n={n}: Betti numbers are not (1, 2, 1)")
            self.inputs[n] = g
        g = self.inputs[self.system_n]
        half = self.system_n // 2

        def closure(triangles):
            return complexes.close_under_faces(Simplex(t) for t in triangles)
        self.triad = (closure(g.grid.band(0, half)),
                      closure(g.grid.band(half, self.system_n - half)))
        self.band = (closure(g.grid.band(0, 2)),)
        if torus_rung(self.inputs[self.sizes[0]], 2) != expected_bars(
                self.inputs[self.sizes[0]].grid):
            raise RuntimeError("warm-up rung gave wrong bars")

    def rounds(self) -> Iterator[list[Op]]:
        while True:
            ops = [self._torus_op(n) for n in self.sizes]
            g = self.inputs[self.system_n]
            ops.append(Op(f"triad-{self.system_n}",
                          lambda: system_rung(g, "triad", self.triad, 2), check_system))
            ops.append(Op(f"pair-{self.system_n}",
                          lambda: system_rung(g, "pair", self.band, 3), check_system))
            yield ops

    def _torus_op(self, n: int) -> Op:
        g = self.inputs[n]
        want = expected_bars(g.grid)

        def check(bars):
            return None if bars == want else f"n={n}: bars {bars} instead of {want}"
        return Op(f"torus-{n}", lambda: torus_rung(g, 2), check)


WORKLOADS = {w.name: w for w in (CliWorkload, SweepWorkload, GridWorkload)}
