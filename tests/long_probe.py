"""The long-filtration probe: the module audit of lower-star grid tori, stage by stage.

    PYTHONPATH=src python tests/long_probe.py [N ...] [--repeat R] [--json]

For each n (default 32 64 100; 200 takes a few seconds and a few hundred MB)
the probe writes, into a temporary directory:

- the n x n grid torus of `perfbench/gridgen.py`, `grid_torus(n, 4242)`, its
  sorted vertices shuffled by `random.Random(77)` and each cell valued by the
  latest position among its vertices (a lower-star function: not Morse, so
  the CLI thresholds at every value, n^2 steps), every cell's value written
  out, cells sorted by (dimension, vertices);
- the triad A = `band(0, n/2)`, B = `band(n/2, n/2)`, written with
  `gridgen.membership_lines`.

It then runs the stages of `mv-audit --level module` in this process, as the
CLI does: load, memberships (A and B), filtration, system build,
`_profile`, and `module_sequence` after the profile; with `--json`, also
the report: the payload and `_write_report` of the module audit, to a
temporary file, after which the report's size in bytes and the peak resident
set size (`ru_maxrss`) are printed. Each stage prints its
CPU seconds (`time.process_time`) and the resident set size after it, in MB
(`VmRSS`, read after `gc.collect()`; peak `ru_maxrss` where /proc is
missing). With `--repeat R` every n runs R times and each stage prints its
least CPU time. Last come the n=100/n=64 ratios of each stage's CPU time
(and n=200/n=100 when both ran): growth faster than the cell count (about
2.4x, then 4x) shows there.

`perfbench/gridgen.py` is imported read-only by path; nothing under
`perfbench/` is written. The collector stays on, as in a CLI run.
"""

import argparse
import gc
import importlib.util
import os
import random
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

STAGES = ("load", "memberships", "filtration", "system build", "_profile", "module_sequence")


def _gridgen():
    spec = importlib.util.spec_from_file_location("perfbench_gridgen",
                                                  ROOT / "perfbench" / "gridgen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def write_triad(gridgen, n: int, directory: Path) -> tuple[Path, Path, Path]:
    """The lower-star complex file and the two band membership files at size n."""
    grid = gridgen.grid_torus(n, 4242)
    cells = sorted(grid.values, key=lambda s: (len(s), s))
    vertices = sorted(s[0] for s in cells if len(s) == 1)
    order = list(vertices)
    random.Random(77).shuffle(order)
    position = dict(zip(order, range(len(order))))
    lines = [f"# {n}x{n} lower-star grid torus"]
    lines += [" ".join(map(str, s)) + f" : {max(map(position.__getitem__, s))}" for s in cells]
    paths = (directory / f"x{n}.txt", directory / f"a{n}.txt", directory / f"b{n}.txt")
    half = n // 2
    texts = (lines, gridgen.membership_lines(grid.band(0, half), "columns 0 .. n/2-1"),
             gridgen.membership_lines(grid.band(half, half), "columns n/2 .. n-1"))
    for path, text in zip(paths, texts):
        path.write_text("\n".join(text) + "\n", encoding="utf-8")
    return paths


def rss_mb() -> float:
    """The resident set size now, in MB; the peak where /proc is missing."""
    gc.collect()
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_stages(paths: tuple[Path, Path, Path],
               report: Path | None = None) -> list[tuple[float, float]]:
    """(CPU seconds, RSS MB after) of each stage of one module audit; given a
    report path, the last stage writes the audit's report there as
    `mv-audit --json` does."""
    from homaudit import cli
    from homaudit.sequences import MODULE, MayerVietorisSystem, module_sequence

    complex_path, a_path, b_path = paths
    out, state, digests = [], {}, {}

    def stage(run):
        start = time.process_time()
        run()
        out.append((time.process_time() - start, rss_mb()))

    def load():
        state["K"], state["f"] = cli.load_complex(complex_path, False, digests)

    def memberships():
        state["A"] = cli.load_membership(a_path, state["K"], digests)
        state["B"] = cli.load_membership(b_path, state["K"], digests)

    def filtration():
        state["filt"] = cli._build_filtration(state["K"], state["f"], None, [])

    def build():
        state["sys"] = MayerVietorisSystem(state["K"], state["A"], state["B"], state["filt"], 2)

    stage(load)
    stage(memberships)
    stage(filtration)
    stage(build)
    stage(lambda: state["sys"]._profile)

    def audit():
        aud = module_sequence(state["sys"])[1]
        if report is not None:  # kept for the report stage
            state["aud"] = aud

    stage(audit)

    def write():
        aud = state["aud"]
        payload = {"thresholds": [str(t) for t in state["filt"].thresholds], "level": MODULE,
                   "kind": "mayer-vietoris", "positions": cli._audit_positions_payload(aud),
                   "verdict": {"law": "exact", "holds": aud.exact, "order2": aud.order2,
                               "exact": aud.exact}}
        cli._write_report(argparse.Namespace(field=2, json=str(report)), command="mv-audit",
                          inputs={"complex": complex_path, "subspace_a": a_path,
                                  "subspace_b": b_path}, digests=digests, extra=payload)

    if report is not None:
        stage(write)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sizes", nargs="*", type=int, default=[32, 64, 100])
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--json", action="store_true",
                        help="add the report stage: the module audit written as with --json")
    args = parser.parse_args(argv)
    gridgen, best = _gridgen(), {}
    stages = STAGES + ("report",) * args.json
    print(f"{'n':>4} {'stage':<16} {'cpu_s':>8} {'rss_mb':>7}")
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.sizes:
            paths = write_triad(gridgen, n, Path(tmp))
            report = Path(tmp) / f"report{n}.json" if args.json else None
            runs = [run_stages(paths, report) for _ in range(args.repeat)]
            best[n] = [min(run[i][0] for run in runs) for i in range(len(stages))]
            for i, name in enumerate(stages):
                print(f"{n:>4} {name:<16} {best[n][i]:>8.4f} {runs[-1][i][1]:>7.1f}")
            total = sum(best[n][:2])
            print(f"{n:>4} {'load+memberships':<16} {total:>8.4f}")
            if report is not None:
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                print(f"{n:>4} report {os.path.getsize(report)} bytes, peak RSS {peak:.1f} MB")
    for big, small in ((100, 64), (200, 100)):
        if big in best and small in best:
            ratios = [b / s if s else float("nan") for b, s in zip(best[big], best[small])]
            load = sum(best[big][:2]) / sum(best[small][:2])
            print(f"n={big}/n={small}: " + ", ".join(
                f"{name} {r:.2f}" for name, r in zip(stages, ratios))
                + f", load+memberships {load:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
