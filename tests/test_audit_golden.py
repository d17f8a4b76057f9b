"""The audit layer, bit for bit: the persistent, module and ordinary audit
rows and the bars of the first acceptance fixtures hash to the digests that
the benchmark's reference file recorded for them."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
N_FIXTURES = 64   # the benchmark's sweep pool


def _load_workloads():
    """perfbench/workloads.py, imported read-only by path (it imports its
    sibling gridgen by name)."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_sweep_fixture_audits_match_reference_digests():
    workloads = _load_workloads()
    reference = workloads.load_reference()["sweep"]
    randfix = workloads.load_randfix()
    mismatches = []
    for i in range(N_FIXTURES):
        broken, record = workloads.verify_fixture(*workloads.fixture_inputs(randfix, i))
        if broken or workloads.digest(record) != reference[i]:
            mismatches.append((i, broken))
    assert mismatches == []
