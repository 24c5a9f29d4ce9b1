"""Golden outputs: command-line files compared byte for byte with the
fixtures under tests/data/golden/.

Covered:

- ``panelcpt bench`` CSV on the 280 T <= 100 cells of the bundled
  ``paper_tables`` grid at ``--s 2 --b 19 --seed 3``, at workers 1 and 2
  against one fixture;
- ``panelcpt simulate`` CSVs of three panels: 30x80 with a non-cancelling
  break, 100x50 with a cancelling break, and 12x40 without a break;
- ``panelcpt test`` JSON for J and H x nbb, cbb, sb x adaptive and fixed
  block length 5 on the 30x80 panel, and J adaptive nbb on the 100x50 panel
  (N > T, so J resamples the panel's triangular factor), each at workers 1
  and 2 against one fixture;
- one ``simulate`` and one ``test`` case again in a subprocess with numpy's
  run-time SIMD dispatch switched off (``NPY_DISABLE_CPU_FEATURES``), so
  the bytes do not depend on which kernels this CPU selects.

These bytes are the package's results, so a change that moves any of them
changes results. A fixture is regenerated only together with a CHANGES.md
entry that names which outputs moved and why. To regenerate all of them:

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import panelcpt
from panelcpt.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

SIMULATE = {
    "simulate_30x80_noncancel.csv": [
        "--n", "30", "--t", "80", "--rho", "0.4", "--beta", "0.5",
        "--break", "noncancel", "--t0-frac", "0.3", "--seed", "11"],
    "simulate_100x50_cancel.csv": [
        "--n", "100", "--t", "50", "--rho", "0.5", "--beta", "1", "--law", "t5",
        "--break", "cancel", "--seed", "12"],
    "simulate_12x40_none.csv": ["--n", "12", "--t", "40", "--seed", "13"],
}

_TEST_ARGS = ["--b", "199", "--seed", "5"]
TESTS = {
    f"test_30x80_{stat}_{scheme}_{block}.json": (
        "simulate_30x80_noncancel.csv",
        ["--statistic", stat, "--scheme", scheme, "--block", block, *_TEST_ARGS])
    for stat in ("J", "H") for scheme in ("nbb", "cbb", "sb") for block in ("adaptive", "5")
}
TESTS["test_100x50_J_nbb_adaptive.json"] = (
    "simulate_100x50_cancel.csv",
    ["--statistic", "J", "--scheme", "nbb", "--block", "adaptive", *_TEST_ARGS])

BENCH = "bench_paper_tables_T100.csv"


def _cli(argv, out: Path) -> bytes:
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


def _simulate(name: str, tmp: Path) -> bytes:
    return _cli(["simulate", *SIMULATE[name]], tmp / name)


def _test(name: str, tmp: Path, workers: int) -> bytes:
    source, args = TESTS[name]
    return _cli(["test", "--input", str(GOLDEN / source), *args, "--workers", str(workers)],
                tmp / name)


def _bench(tmp: Path, workers: int) -> bytes:
    """The bundled grid reduced to its T <= 100 cells, run at S=2, B=19."""
    text = resources.files("panelcpt.data").joinpath("paper_tables.scn").read_text()
    lines = [line for line in text.splitlines()
             if not line.startswith("scenario ")
             or int(dict(tok.split("=", 1) for tok in line.split()[1:])["t"]) <= 100]
    scn = tmp / "paper_tables_T100.scn"
    scn.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return _cli(["bench", "--scenarios", str(scn), "--s", "2", "--b", "19", "--seed", "3",
                 "--workers", str(workers)], tmp / BENCH)


@pytest.mark.parametrize("workers", [1, 2])
def test_bench_csv(workers, tmp_path):
    out = _bench(tmp_path, workers)
    assert out.count(b"\n") == 1 + 280
    assert out == (GOLDEN / BENCH).read_bytes()


@pytest.mark.parametrize("name", sorted(SIMULATE))
def test_simulate_csv(name, tmp_path):
    assert _simulate(name, tmp_path) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(TESTS))
def test_test_json(name, workers, tmp_path):
    assert _test(name, tmp_path, workers) == (GOLDEN / name).read_bytes()


# the dispatch targets above numpy's build baseline that this CPU would select
_DISPATCHED = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]

# checks that the features are off in the child before running the command
_CHILD = ("import sys; from numpy._core._multiarray_umath import __cpu_features__ as f; "
          "from panelcpt.cli import main; "
          "assert not any(f[k] for k in sys.argv[1].split()), 'dispatch not disabled'; "
          "sys.exit(main(sys.argv[2:]))")


@pytest.mark.skipif(not _DISPATCHED, reason="numpy dispatches no kernel above its baseline here")
def test_outputs_without_simd_dispatch(tmp_path):
    features = " ".join(_DISPATCHED)
    src = str(Path(panelcpt.__file__).parent.parent)
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": features,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    source, args = TESTS["test_30x80_H_sb_adaptive.json"]
    for name, argv in [
        ("simulate_100x50_cancel.csv", ["simulate", *SIMULATE["simulate_100x50_cancel.csv"]]),
        ("test_30x80_H_sb_adaptive.json", ["test", "--input", str(GOLDEN / source), *args]),
    ]:
        out = tmp_path / name
        subprocess.run([sys.executable, "-c", _CHILD, features, *argv, "--out", str(out)],
                       env=env, check=True, timeout=300)
        assert out.read_bytes() == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in SIMULATE:  # first: the test commands read them
            (GOLDEN / name).write_bytes(_simulate(name, Path(tmp)))
        for name in TESTS:
            (GOLDEN / name).write_bytes(_test(name, Path(tmp), workers=1))
        (GOLDEN / BENCH).write_bytes(_bench(Path(tmp), workers=1))
