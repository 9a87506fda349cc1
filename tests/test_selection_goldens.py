"""Golden ``auto`` choices of the minimization selector.

The goldens were recorded from the 4.0.0 selector, which priced every
backend with the paper's serial-host and C1060 cost models.  The rule
that replaced it must reproduce those choices: every cell without
devices except the listed ones, all at 400k or more pairs per pose.
With two or more devices the old pricing flipped with ensemble size; the
rule shards every ensemble of two or more poses, and those cells are
checked against the rule directly.
"""

import itertools

import pytest

from repro.minimize.selection import ensemble_batch_limit, select_minimize_backend

MIN_CODES = {"s": "serial", "b": "batched"}

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
