"""The long-filtration probe: the module audit of lower-star grid tori, stage by stage.

    PYTHONPATH=src python tests/long_probe.py [N ...] [--repeat R]

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
`_profile`, and `module_sequence` after the profile. Each stage prints its
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


def run_stages(paths: tuple[Path, Path, Path]) -> list[tuple[float, float]]:
    """(CPU seconds, RSS MB after) of each stage of one module audit."""
    from homaudit import cli
    from homaudit.sequences import MayerVietorisSystem, module_sequence

    complex_path, a_path, b_path = paths
    out, state = [], {}

    def stage(run):
        start = time.process_time()
        run()
        out.append((time.process_time() - start, rss_mb()))

    def load():
        state["K"], state["f"] = cli.load_complex(complex_path, False, {})

    def memberships():
        state["A"] = cli.load_membership(a_path, state["K"], {})
        state["B"] = cli.load_membership(b_path, state["K"], {})

    def filtration():
        state["filt"] = cli._build_filtration(state["K"], state["f"], None, [])

    def build():
        state["sys"] = MayerVietorisSystem(state["K"], state["A"], state["B"], state["filt"], 2)

    stage(load)
    stage(memberships)
    stage(filtration)
    stage(build)
    stage(lambda: state["sys"]._profile)
    stage(lambda: module_sequence(state["sys"]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sizes", nargs="*", type=int, default=[32, 64, 100])
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)
    gridgen, best = _gridgen(), {}
    print(f"{'n':>4} {'stage':<16} {'cpu_s':>8} {'rss_mb':>7}")
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.sizes:
            paths = write_triad(gridgen, n, Path(tmp))
            runs = [run_stages(paths) for _ in range(args.repeat)]
            best[n] = [min(run[i][0] for run in runs) for i in range(len(STAGES))]
            for i, name in enumerate(STAGES):
                print(f"{n:>4} {name:<16} {best[n][i]:>8.4f} {runs[-1][i][1]:>7.1f}")
            total = sum(best[n][:2])
            print(f"{n:>4} {'load+memberships':<16} {total:>8.4f}")
    for big, small in ((100, 64), (200, 100)):
        if big in best and small in best:
            ratios = [b / s if s else float("nan") for b, s in zip(best[big], best[small])]
            load = sum(best[big][:2]) / sum(best[small][:2])
            print(f"n={big}/n={small}: " + ", ".join(
                f"{name} {r:.2f}" for name, r in zip(STAGES, ratios))
                + f", load+memberships {load:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
