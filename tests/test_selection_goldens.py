"""Golden ``auto`` choices of both backend selectors.

The goldens were recorded from the 4.0.0 selectors, which priced every
backend with the paper's serial-host and C1060 cost models.  The rules
that replaced them must reproduce those choices: every docking cell, and
every minimization cell without devices except the listed ones, all
at 400k or more pairs per pose.  With two or more devices the old
pricing flipped with ensemble size; the rule shards every ensemble of
two or more poses, and those cells are checked against the rule
directly.
"""

import itertools

import pytest

from repro.docking.selection import select_backend
from repro.minimize.selection import ensemble_batch_limit, select_minimize_backend

DOCK_CODES = {"d": "direct", "f": "fft", "b": "batched-fft"}
MIN_CODES = {"s": "serial", "b": "batched"}

#: Columns of each docking row: channels x rotations.
DOCK_CHANNELS = (4, 8, 22)
DOCK_ROTATIONS = (1, 2, 4, 8, 24, 72, 500)

#: (receptor edge n, ligand edge m) -> one code per (channels, rotations),
#: channel groups separated by spaces.  Includes the crossover shapes of
#: ``benchmarks/test_direct_vs_fft_crossover.py`` (n=128, m=2 and 16,
#: 22 channels, 500 rotations).
DOCK_GOLDENS = {
    (32, 2): "ddddddd ddddddd ddddddd",
    (32, 4): "dbbbbbb dbbbbbb dbbbbbb",
    (32, 8): "fbbbbbb fbbbbbb fbbbbbb",
    (32, 12): "fbbbbbb fbbbbbb fbbbbbb",
    (32, 16): "fbbbbbb fbbbbbb fbbbbbb",
    (48, 2): "ddddddd ddddddd ddddddd",
    (48, 4): "dbbbbbb dbbbbbb dbbbbbb",
    (48, 8): "fbbbbbb fbbbbbb fbbbbbb",
    (48, 12): "fbbbbbb fbbbbbb fbbbbbb",
    (48, 16): "fbbbbbb fbbbbbb fbbbbbb",
    (64, 2): "ddddddd ddddddd ddddddd",
    (64, 4): "dbbbbbb dbbbbbb dbbbbbb",
    (64, 8): "fbbbbbb fbbbbbb fbbbbbb",
    (64, 12): "fbbbbbb fbbbbbb fbbbbbb",
    (64, 16): "fbbbbbb fbbbbbb fbbbbbb",
    (128, 2): "ddddddd ddddddd ddddddd",
    (128, 4): "ddbbbbb dbbbbbb dbbbbbb",
    (128, 8): "fbbbbbb fbbbbbb fbbbbbb",
    (128, 12): "fbbbbbb fbbbbbb fbbbbbb",
    (128, 16): "fbbbbbb fbbbbbb fbbbbbb",
}

#: Columns of each minimization row: active pairs per pose.
MIN_PAIRS = (
    100, 1_000, 5_000, 10_000, 50_000, 100_000, 400_000, 500_000,
    600_000, 750_000, 750_001, 1_000_000, 2_000_000,
)

#: Poses -> one code per pair count (recorded at 350 atoms, 60 iterations).
MIN_GOLDENS = {
    1: "sssssssssssss",
    2: "bbbbbbbbbbsss",
    3: "bbbbbbbbsssss",
    4: "bbbbbbssbbsss",
    5: "bbbbbbsssssss",
    8: "bbbbbbssbbsss",
    12: "bbbbbbbbbbsss",
    64: "bbbbbbbbbbsss",
    2000: "bbbbbbbbbbsss",
}

#: (poses, pairs) cells where the old pricing chose ``serial`` and the rule
#: chooses ``batched``: the model charged a partial last batch as a full one.
MIN_EXCEPTIONS = {
    (3, 600_000), (3, 750_000),
    (4, 400_000), (4, 500_000),
    (5, 400_000), (5, 500_000), (5, 600_000), (5, 750_000),
    (8, 400_000), (8, 500_000),
}


@pytest.mark.parametrize("n,m", list(DOCK_GOLDENS))
def test_docking_auto_matches_golden(n, m):
    codes = DOCK_GOLDENS[(n, m)].replace(" ", "")
    cells = itertools.product(DOCK_CHANNELS, DOCK_ROTATIONS)
    for code, (channels, rotations) in zip(codes, cells, strict=True):
        got = select_backend(n, m, channels, num_rotations=rotations).backend
        assert got == DOCK_CODES[code], (n, m, channels, rotations)


def test_minimize_auto_matches_golden_outside_listed_cells():
    for poses, codes in MIN_GOLDENS.items():
        for code, pairs in zip(codes, MIN_PAIRS, strict=True):
            got = select_minimize_backend(poses, pairs).backend
            if (poses, pairs) in MIN_EXCEPTIONS:
                assert pairs >= 400_000
                assert (MIN_CODES[code], got) == ("serial", "batched")
            else:
                assert got == MIN_CODES[code], (poses, pairs)


@pytest.mark.parametrize("devices", [1, 2, 4])
def test_minimize_topology_cells_follow_rule(devices):
    for poses, pairs in itertools.product((1, 2, 4, 12, 64, 2000), MIN_PAIRS):
        got = select_minimize_backend(poses, pairs, devices=devices).backend
        if poses >= 2 and devices >= 2:
            expected = "multi-gpu-sim"
        elif poses >= 2 and ensemble_batch_limit(pairs) >= 2:
            expected = "batched"
        else:
            expected = "serial"
        assert got == expected, (devices, poses, pairs)
