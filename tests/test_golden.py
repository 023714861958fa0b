"""Golden lock: the four deterministic result files of every experiment
kind, and the files of the CLI chain, pinned by SHA-256.

AC9 only shows that reruns agree with each other; it cannot notice a
change that moves every random draw the same way. These digests were
taken before the index-array hot path replaced the per-object one, so
any change to draws, shuffles, sort order, metric arithmetic or CSV
formatting shows up here. The config is AC9's small one, with the
dataset path relative to the repository root so that ``config.json``
does not depend on where the checkout lives.

The CLI chain is ``sample --n 1000`` at seed 42 on the fixture, then
``sort``, ``curve``, ``rnd --json`` and ``parity --json`` on the sorted
list, plus ``audit`` of the bundled candidate list, so every list reader
and writer is covered. ``parity.json`` is compared by value, its p-value
to a relative 1e-9.
"""

import hashlib
import json

import pytest

from listfair.cli import main
from listfair.experiments import ExperimentConfig, run_experiment

GOLDEN = {
    "percf": {
        "config.json": "40af1bd8dea340373b8a4fe54079f2bdea04cd58b405d84428fd6926293eae21",
        "raw.csv": "d5066b8199a0dbc9ef633c915c6832383d5f7168585bd905eacd2a4fa2cc002d",
        "aggregate.csv": "4d832d68df920007b043b1e41847bd3553f9db9e0ee776648d9cb4b1ec239135",
        "curves.csv": "0e79e95367337548f2bca2c8737b4d68a6dd8af5eef240a78522992c9be44d94",
    },
    "rnd_grid": {
        "config.json": "002442fca0e8838686ecaf85339461f3fb46b21bf2136218c2812bf17bd944a6",
        "raw.csv": "e943272ed0a730acfd6c1c01466a03db92ee4464b80139f30ec6a9fc121616c1",
        "aggregate.csv": "6c9477d4fb94388a709e3c93cc96f258b383ae79ce6ebc50bd6c721b3aa4b537",
        "curves.csv": "c1775637b37087d979788aa69b24fb7691913a699db0946af310bef68c02fdba",
    },
    "rnd_size": {
        "config.json": "0ca8b99ced575d709821bdee1c31617e6a0b16fd7221c1e6a80c5459a8a55ba3",
        "raw.csv": "609964e08893e6106dbfd58b51e828a92311e6e7aab138a0602aea7d2f673116",
        "aggregate.csv": "23b7cc5792d5f48b2d9157d1c4349e9ddc52ae7a29f52a2b0a00a96c427b8c32",
        "curves.csv": "110203e2ec09e987487791509a998d37107672d9d1b40e9270931658b6b09955",
    },
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_experiment_outputs_match_golden_digests(kind, tmp_path, monkeypatch, data_dir):
    monkeypatch.chdir(data_dir.parent)
    cfg = ExperimentConfig(
        dataset_paths=["data/fixture.csv"],
        samples_per_cell=20,
        n=200,
        perc_fs_grid=[0.2, 0.5, 0.8],
        size_grid=[50, 120],
        seed=42,
    )
    run_experiment(kind, cfg, out_dir=tmp_path, jobs=1)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN[kind]
    }
    assert digests == GOLDEN[kind]


CLI_GOLDEN = {
    "sample.csv": "5dc4c73fa7e1e182807d4dd115d86531cbeb073a0f2ef8c3386670e186f5b3fd",
    "sorted.csv": "7463213a5e6c066f910e29febd12ddad857a6ba0550804ef1232bc53844cb27c",
    "curve.csv": "81323862a0b3d255b2dcfb252fe429493bf41fdfc5f6863e374a201454175aa2",
    "rnd.json": "c1b9cf83dcacdec7dfd5f50f92ae361237dfd9eba8e7d00e120856fe6aa1efe4",
    "audit.csv": "0b62515893e2ef89f3f9b250a986eb8b6b7532c413eb1eda4d5e5d25d333f55b",
}
PARITY_GOLDEN = {
    "p_value": 0.0227033938381674,
    "passes": False,
    "perc_f_reference": 0.4800006461696276,
    "perc_f_sample": 0.444,
}


def test_cli_chain_matches_golden_digests(tmp_path, monkeypatch, data_dir, fixture_dataset):
    monkeypatch.chdir(data_dir.parent)
    sample, ordered = str(tmp_path / "sample.csv"), str(tmp_path / "sorted.csv")
    reference = repr(fixture_dataset.perc_f)
    for argv in [
        ["sample", "--dataset", "data/fixture.csv", "--n", "1000", "--seed", "42", "--out", sample],
        ["sort", "--in", sample, "--out", ordered],
        ["curve", "--in", ordered, "--out", str(tmp_path / "curve.csv")],
        ["rnd", "--in", ordered, "--json", "--out", str(tmp_path / "rnd.json")],
        ["parity", "--in", ordered, "--reference", reference, "--json",
         "--out", str(tmp_path / "parity.json")],
        ["audit", "--in", "data/candidates/sp_federal.csv", "--page-sizes", "5,9,15",
         "--out", str(tmp_path / "audit.csv")],
    ]:
        assert main(argv) == 0, argv
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in CLI_GOLDEN
    }
    assert digests == CLI_GOLDEN
    parity = json.loads((tmp_path / "parity.json").read_text(encoding="utf-8"))
    assert parity == {**PARITY_GOLDEN, "p_value": pytest.approx(PARITY_GOLDEN["p_value"], rel=1e-9)}
