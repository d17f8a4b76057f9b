"""The shipped torus triad and genus-2 pair realize the homology tables the
audits are keyed to."""

from homaudit.complexes import betti_numbers, intersect
from homaudit.fixtures import write_genus2_files, write_torus_files
from homaudit.morse import validate_morse
from homaudit.persistence import barcode


def test_torus_shape(torus):
    X = torus.complex
    assert [X.n_cells(k) for k in range(3)] == [9, 27, 18]
    assert validate_morse(X, torus.function) == ()
    for p in (2, 3):
        assert betti_numbers(X, p) == [1, 2, 1]
    assert betti_numbers(torus.A, 2) == [1, 1, 0]
    assert betti_numbers(torus.B, 2) == [1, 1, 0]
    assert betti_numbers(intersect(torus.A, torus.B), 2) == [2, 2]


def test_torus_homology_tables(torus_system):
    # the per-level group dimensions around the two designated sublevels
    assert torus_system.RA.dims(1) == (0, 0, 1, 1, 1, 1)
    assert torus_system.RB.dims(1) == (0, 0, 1, 1, 2, 1)
    assert torus_system.RAB.dims(1) == (0, 0, 1, 1, 2, 2)
    assert torus_system.RX.dims(1) == (0, 1, 2, 2, 2, 2)
    assert torus_system.RX.dims(2) == (0, 0, 0, 0, 0, 1)
    u, v = 4, 5
    assert len(torus_system.RAB.persistent_group(1, u, v)) == 2
    assert len(torus_system.RA.persistent_group(1, u, v)) == 1
    assert len(torus_system.RB.persistent_group(1, u, v)) == 1
    assert len(torus_system.RX.persistent_group(2, u, v)) == 0


def test_torus_tables_hold_over_f3(torus_system_f3):
    s = torus_system_f3
    assert s.RB.dims(1) == (0, 0, 1, 1, 2, 1)
    assert len(s.RAB.persistent_group(1, 4, 5)) == 2
    assert len(s.RA.persistent_group(1, 4, 5)) == 1
    assert len(s.RB.persistent_group(1, 4, 5)) == 1


def test_torus_barcodes(torus_system):
    x_bars = barcode(torus_system.RX, 1)
    assert [str(iv) for iv in x_bars] == ["[6, inf)", "[8, inf)"]
    b_bars = barcode(torus_system.RB, 1)
    assert [str(iv) for iv in b_bars] == ["[8, inf)", "[95, 100)"]
    assert [str(iv) for iv in barcode(torus_system.RX, 2)] == ["[100, inf)"]
    assert [str(iv) for iv in barcode(torus_system.RX, 0)] == ["[0, inf)"]


def test_genus2_shape(genus2):
    X = genus2.complex
    assert [X.n_cells(k) for k in range(3)] == [15, 51, 34]
    for p in (2, 3):
        assert betti_numbers(X, p) == [1, 4, 1]
    assert betti_numbers(genus2.A, 2) == [1, 1]
    assert validate_morse(X, genus2.function) == ()


def test_genus2_homology_tables(genus2_system):
    filt = genus2_system.filtration
    u, v = filt.index_of(190), filt.index_of(250)
    assert genus2_system.RX.dim(1, u) == 5
    assert genus2_system.RX.dim(1, v) == 4
    assert genus2_system.RX.dim(2, u) == 0
    assert genus2_system.RA.dim(1, u) == 1 and genus2_system.RA.dim(1, v) == 1
    assert genus2_system.RXA.dim(1, u) == 4 and genus2_system.RXA.dim(1, v) == 4
    assert genus2_system.RXA.dim(2, u) == 0
    # persistent groups between the levels
    assert len(genus2_system.RXA.persistent_group(2, u, v)) == 0
    assert len(genus2_system.RA.persistent_group(1, u, v)) == 1
    assert len(genus2_system.RX.persistent_group(1, u, v)) == 4
    assert len(genus2_system.RXA.persistent_group(1, u, v)) == 4


def test_genus2_circle_class_dies(genus2_system):
    filt = genus2_system.filtration
    u, v = filt.index_of(190), filt.index_of(250)
    at_u = genus2_system.horizontal("alpha", 1, u)  # H_1(A) -> H_1(X)
    at_v = genus2_system.horizontal("alpha", 1, v)
    assert at_u.any()        # the separating circle is alive in the level-u surface
    assert not at_v.any()    # and null-homologous once the lower handle closes


def test_fixture_files_match_generators(tmp_path, data_dir):
    fresh_torus = write_torus_files(tmp_path / "torus")
    fresh_genus2 = write_genus2_files(tmp_path / "genus2")
    for name, path in fresh_torus.items():
        shipped = data_dir / "torus" / path.name
        assert shipped.read_text() == path.read_text(), f"regenerate data/torus/{path.name}"
    for name, path in fresh_genus2.items():
        shipped = data_dir / "genus2" / path.name
        assert shipped.read_text() == path.read_text(), f"regenerate data/genus2/{path.name}"
