"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-3 drive the CLI on the shipped fixtures and hold exact integer
expectations with their stated sub-second runtime bounds. Criteria 4-7 sweep
a deterministic batch of 500 randomized triads and pairs. Criterion 8 checks
the Morse layer. The fixture batch is built once per session (untimed); each
criterion times its own verification loop.
"""

import json
import time

import numpy as np
import pytest

from homaudit.cli import main as cli_main
from homaudit.complexes import betti_numbers
from homaudit.linalg import dense_rank, mat_mul, solve_matrix
from homaudit.morse import critical_cells, is_perfect, validate_morse
from homaudit.persistence import barcode
from homaudit.sequences import (check_squares, module_sequence, ordinary_sequence,
                                persistent_sequence)

from naive import naive_persistent_dim
from randfix import FIXTURE_COUNT, fixture_batch


@pytest.fixture(scope="session")
def batch():
    return fixture_batch(FIXTURE_COUNT)


def _cli(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_1_torus_mv_counterexample(data_dir, tmp_path, capsys):
    d = data_dir / "torus"
    report_path = tmp_path / "mv.json"
    start = time.monotonic()
    code, out = _cli(capsys, "mv-audit", str(d / "complex.txt"),
                     "--subspace-a", str(d / "subspace_a.txt"),
                     "--subspace-b", str(d / "subspace_b.txt"),
                     "--level", "persistent", "--u", "95", "--v", "100",
                     "--json", str(report_path))
    elapsed = time.monotonic() - start
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["persistent_dims"]["A∩B"][1] == 2
    assert report["persistent_dims"]["A"][1] == 1
    assert report["persistent_dims"]["B"][1] == 1
    row = next(r for r in report["positions"]
               if r["term"] == "A∩B" and r["degree"] == 1)
    assert row["image_in"] == 0          # im delta = 0
    assert row["kernel_out"] == 1        # ker alpha is one-dimensional
    assert row["defect"] == 1
    assert report["verdict"]["order2"] is True
    assert report["verdict"]["exact"] is False
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    print(f"\nPASS criterion 1: torus persistent-level defect 1 at (k=1, A∩B) "
          f"in {elapsed:.2f}s")


def test_criterion_2_torus_module_exactness(data_dir, torus_system, capsys):
    d = data_dir / "torus"
    start = time.monotonic()
    code, out = _cli(capsys, "mv-audit", str(d / "complex.txt"),
                     "--subspace-a", str(d / "subspace_a.txt"),
                     "--subspace-b", str(d / "subspace_b.txt"),
                     "--level", "module", "--thresholds", "0,6,8,79,95,100")
    assert code == 0
    assert "law (exact): holds" in out

    # the resolving witness: the class that breaks persistent-level exactness
    # is pushed up one index by the module action and then lands in im delta
    seq, aud = module_sequence(torus_system)
    assert aud.exact
    idx = next(i for i, t in enumerate(seq.terms)
               if t.label == "A∩B" and t.degree == 1)
    delta, alpha = seq.maps[idx - 1], seq.maps[idx]
    RAB = torus_system.RAB
    both_circles = dict.fromkeys(RAB.basis_simplices(1, 4), 1)  # every edge, summed
    gamma4 = RAB.class_of(1, 4, [both_circles])[:, 0]
    assert gamma4.any()
    witness = [np.zeros(RAB.dim(1, u), dtype=np.int64) for u in range(RAB.n_steps)]
    witness[4] = gamma4
    dim_a = torus_system.RA.dim(1, 4)
    image4 = mat_mul(alpha[4], gamma4.reshape(-1, 1), 2)[:, 0]
    assert not image4[:dim_a].any()      # vanishes in A already
    assert image4[dim_a:].any()          # alive in B, so the witness is not in ker
    # x shifts component u by the step map into u + 1; the top one folds onto itself
    shifted = [np.zeros_like(witness[0])] + [
        mat_mul(RAB.induced_matrix(1, u, u + 1), c.reshape(-1, 1), 2)[:, 0]
        for u, c in enumerate(witness[:-1])]
    shifted[-1] = (shifted[-1] + witness[-1]) % 2
    gamma5 = shifted[5]
    assert gamma5.any() and not any(c.any() for c in shifted[:5])
    assert not mat_mul(alpha[5], gamma5.reshape(-1, 1), 2).any()  # now in ker
    sigma = solve_matrix(delta[5], gamma5, 2)
    assert sigma is not None and sigma.any()
    assert torus_system.RX.dim(2, 5) == 1  # the preimage is the fundamental class
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    print(f"\nPASS criterion 2: torus module-level exact; x-shifted class "
          f"hit by the fundamental class in {elapsed:.2f}s")


def test_criterion_3_genus2_pair_counterexample(data_dir, tmp_path, capsys):
    d = data_dir / "genus2"
    report_path = tmp_path / "pair.json"
    start = time.monotonic()
    code, out = _cli(capsys, "pair-audit", str(d / "complex.txt"),
                     "--subspace-a", str(d / "subspace_a.txt"),
                     "--level", "persistent", "--u", "190", "--v", "250",
                     "--thresholds", "0,90,190,250,300",
                     "--json", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["persistent_dims"]["(X,A)"][2] == 0
    assert report["persistent_dims"]["A"][1] == 1
    assert report["persistent_dims"]["X"][1] == 4
    assert report["persistent_dims"]["(X,A)"][1] == 4
    row = next(r for r in report["positions"] if r["term"] == "A" and r["degree"] == 1)
    assert row["defect"] == 1 and row["image_in"] == 0 and row["kernel_out"] == 1
    assert report["verdict"]["order2"] is True and report["verdict"]["exact"] is False

    code, out = _cli(capsys, "pair-audit", str(d / "complex.txt"),
                     "--subspace-a", str(d / "subspace_a.txt"),
                     "--level", "module", "--thresholds", "0,90,190,250,300")
    assert code == 0
    assert "law (exact): holds" in out
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    print(f"\nPASS criterion 3: genus-2 pair defect 1 at (k=1, A), module level "
          f"exact, in {elapsed:.2f}s")


def test_criterion_4_order2_suite(batch):
    start = time.monotonic()
    violations = 0
    checked = 0
    for kind, sys_, _ in batch:
        assert len(sys_.X) <= 25
        n = sys_.n_steps
        for u in range(n):
            for v in range(u, n):
                _, aud = persistent_sequence(sys_, u, v)
                checked += 1
                if not aud.order2:
                    violations += 1
    elapsed = time.monotonic() - start
    assert violations == 0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    print(f"\nPASS criterion 4: order-2 held in {checked} persistent audits over "
          f"{len(batch)} fixtures in {elapsed:.1f}s")


def test_criterion_5_module_exactness_suite(batch):
    start = time.monotonic()
    violations = sum(0 if module_sequence(sys_)[1].exact else 1
                     for _, sys_, _ in batch)
    elapsed = time.monotonic() - start
    assert violations == 0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    print(f"\nPASS criterion 5: module-level exactness on {len(batch)} fixtures "
          f"in {elapsed:.1f}s")


def test_criterion_6_ordinary_exactness_and_squares(batch):
    start = time.monotonic()
    audits = squares = 0
    for kind, sys_, _ in batch:
        n = sys_.n_steps
        for u in range(n):
            _, aud = ordinary_sequence(sys_, u)
            assert aud.exact, (kind, u)
            audits += 1
            for v in range(u, n):
                assert check_squares(sys_, u, v) == []
                squares += 1
    elapsed = time.monotonic() - start
    print(f"\nPASS criterion 6: {audits} ordinary sequences exact, "
          f"{squares} square families commute, in {elapsed:.1f}s")


def test_criterion_7_structure_theorem_consistency(batch):
    start = time.monotonic()
    checked = oracle_checked = 0
    for kind, sys_, _ in batch:
        results = ([sys_.RX, sys_.RA, sys_.RB, sys_.RAB] if kind == "triad"
                   else [sys_.RX, sys_.RA, sys_.RXA])
        n = sys_.n_steps
        for R in results:
            for k in range(R.max_degree + 1):
                bars = barcode(R, k)
                for u in range(n):
                    for v in range(u, n):
                        dim = dense_rank(R.induced_matrix(k, u, v), R.modulus)
                        assert dim == bars.count_containing(u, v), (kind, k, u, v)
                        checked += 1
        if len(sys_.X) <= 20:
            R = sys_.RX
            for k in range(R.max_degree + 1):
                for u in range(n):
                    for v in range(u, n):
                        got = dense_rank(R.induced_matrix(k, u, v), R.modulus)
                        assert got == naive_persistent_dim(R, k, u, v)
                        oracle_checked += 1
    elapsed = time.monotonic() - start
    print(f"\nPASS criterion 7: barcode/group consistency at {checked} index pairs; "
          f"{oracle_checked} brute-force oracle agreements, in {elapsed:.1f}s")


def test_criterion_8_morse_layer(torus, batch):
    start = time.monotonic()
    assert validate_morse(torus.complex, torus.function) == ()
    for p in (2, 3):
        report = is_perfect(torus.complex, torus.function, p)
        assert report.perfect
        assert report.critical_counts == (1, 2, 1)
        assert report.betti == (1, 2, 1)
    weak_checked = 0
    for _, sys_, f in batch:
        K = f.complex
        counts = [0] * (K.dim + 1)
        for s in critical_cells(K, f):
            counts[s.dim] += 1
        for ck, bk in zip(counts, betti_numbers(K, sys_.modulus)):
            assert ck >= bk
        weak_checked += 1
    elapsed = time.monotonic() - start
    print(f"\nPASS criterion 8: torus function perfect over F_2 and F_3; weak "
          f"inequality on {weak_checked} random Morse functions, in {elapsed:.1f}s")
