"""E-min — ensemble batching of the minimization phase (PR 2's artifact).

Mirror of ``test_batching_speedup.py`` one pipeline phase later: the paper
batches rotations through one docking kernel launch (Sec. III.A); this
repo's minimization engine batches conformations through one vectorized
energy evaluation.  Two real wall-clock ratios on a real FTMap-scale
ensemble (>= 12 poses of one receptor+probe complex):

* **production config** — the fp32 batched path (the paper's GPU arithmetic,
  like the fp32 proposal of certified direct docking) against the fp64
  serial per-pose loop, asserted at >= 1.2x,
* **pure batching (fp64)** — same arithmetic width as serial, isolating
  dispatch amortization; asserted >= 0.85x, the ratio itself reported for
  the nightly artifact.

Re-baselined by the serial-floor raw-speed pass: the serial loop now uses
the same energies-only line-search fast path the batched minimizer always
had (bitwise-identical results, ~1.25x faster serial iterations), so both
ratios measured against it dropped and the floors were deliberately
re-recorded (1.5 -> 1.2, 1.0 -> 0.85).  The old floors are kept as PREV_*
constants and the old->new deltas are printed with the measurements, so the
perf trajectory stays auditable from the nightly artifact alone.

Double-precision equivalence (bitwise-level agreement with the serial
minimizer) is asserted in ``tests/test_minimize_batched.py``; here we only
re-check that the timed runs produced matching refinements.
"""

import time

import numpy as np
import pytest

from repro.minimize import (
    BatchedMinimizer,
    EnergyModel,
    EnsembleEnergyModel,
    Minimizer,
    MinimizerConfig,
)
from repro.perf.tables import ComparisonRow
from repro.structure import synthetic_complex
from repro.structure.builder import pocket_movable_mask

#: FTMap retains >= 12 conformations per probe at interactive scale
#: (minimize_top); the paper-scale phase refines 2000.
N_POSES = 16

#: The batched production config (fp32 ensemble arithmetic) must beat the
#: fp64 serial per-pose loop by at least this much (acceptance floor;
#: measured ~1.35-1.4x single-core at this complex size against the
#: fast-path serial loop — ~1.8-2.2x against the historical serial loop,
#: which the PREV_ floor below recorded).
MIN_BATCHED_MINIMIZATION_SPEEDUP = 1.2
PREV_MIN_BATCHED_MINIMIZATION_SPEEDUP = 1.5

#: Like-for-like fp64 guard.  With serial and batched line searches now
#: using the same energies-only fast path, fp64 batching's only remaining
#: edge is dispatch amortization; at this complex size the measured ratio
#: is ~1.0, so the floor guards against batching *regressing* below 0.85,
#: not for a win that arithmetic parity no longer implies.
MIN_PURE_BATCHING_SPEEDUP = 0.85
PREV_MIN_PURE_BATCHING_SPEEDUP = 1.0

ITERATIONS = 20


@pytest.fixture(scope="module")
def workload():
    """(molecule, stack, masks): a >= 12-pose ensemble of one complex."""
    mol = synthetic_complex(probe_name="ethanol", n_residues=40, seed=3)
    n_probe = mol.meta["n_probe_atoms"]
    rng = np.random.default_rng(5)
    stack = np.stack([mol.coords.copy() for _ in range(N_POSES)])
    for k in range(N_POSES):
        stack[k, -n_probe:] += rng.normal(scale=0.3, size=(n_probe, 3))
    masks = np.stack(
        [
            pocket_movable_mask(mol.with_coords(stack[k]), n_probe)
            for k in range(N_POSES)
        ]
    )
    return mol, stack, masks


def _best_of(fn, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_minimization_batching_speedup(workload, print_comparison):
    mol, stack, masks = workload
    cfg = MinimizerConfig(max_iterations=ITERATIONS)

    serial_models = [EnergyModel(mol, movable=masks[k]) for k in range(N_POSES)]
    em_fp32 = EnsembleEnergyModel(mol, stack, movable=masks, precision="single")
    em_fp64 = EnsembleEnergyModel(mol, stack, movable=masks, precision="double")

    # Warm the pair structures (built once per pose in both paths; iteration
    # counts below stay under the refresh check interval, so the timed runs
    # do identical work on identical lists every repeat).
    for k in range(N_POSES):
        serial_models[k].neighbor_list(stack[k])
    em_fp32.pose_pair_counts()
    em_fp64.pose_pair_counts()

    def serial_loop():
        return [
            Minimizer(serial_models[k], config=cfg).run(coords=stack[k])
            for k in range(N_POSES)
        ]

    t_serial = _best_of(serial_loop)
    t_fp32 = _best_of(lambda: BatchedMinimizer(em_fp32, cfg).run())
    t_fp64 = _best_of(lambda: BatchedMinimizer(em_fp64, cfg).run())
    speedup = t_serial / t_fp32
    speedup_fp64 = t_serial / t_fp64

    print_comparison(
        "Minimization ensemble batching — wall clock "
        f"({N_POSES} poses x {ITERATIONS} iterations)",
        [
            ComparisonRow("serial loop (ms/pose)", None, t_serial / N_POSES * 1e3),
            ComparisonRow("batched fp32 (ms/pose)", None, t_fp32 / N_POSES * 1e3),
            ComparisonRow("batched fp64 (ms/pose)", None, t_fp64 / N_POSES * 1e3),
            ComparisonRow("batched speedup (production fp32)", None, speedup, "x"),
            ComparisonRow("pure-batching (fp64) speedup", None, speedup_fp64, "x"),
            # Re-baselining audit trail: reference column = old floor,
            # measured column = the floor now enforced.
            ComparisonRow(
                "gate floor: batched fp32 (old -> new)",
                PREV_MIN_BATCHED_MINIMIZATION_SPEEDUP,
                MIN_BATCHED_MINIMIZATION_SPEEDUP,
                "x",
            ),
            ComparisonRow(
                "gate floor: pure batching fp64 (old -> new)",
                PREV_MIN_PURE_BATCHING_SPEEDUP,
                MIN_PURE_BATCHING_SPEEDUP,
                "x",
            ),
        ],
    )
    assert speedup >= MIN_BATCHED_MINIMIZATION_SPEEDUP
    assert speedup_fp64 >= MIN_PURE_BATCHING_SPEEDUP

    # The timed configurations refine to the same energies: fp64 exactly,
    # fp32 to single-precision tolerance.
    serial_res = serial_loop()
    fp64_res = BatchedMinimizer(em_fp64, cfg).run()
    fp32_res = BatchedMinimizer(em_fp32, cfg).run()
    for s, b64, b32 in zip(serial_res, fp64_res, fp32_res):
        assert b64.energy == pytest.approx(s.energy, rel=1e-10)
        assert b32.energy == pytest.approx(s.energy, rel=5e-3)


def test_active_set_masking_skips_converged_poses(workload):
    """Late iterations only evaluate unconverged poses: a loosely-converged
    ensemble finishes in fewer evaluations than poses x iterations."""
    mol, stack, masks = workload
    evaluated = []
    cfg = MinimizerConfig(max_iterations=40, tolerance=5.0)
    model = EnsembleEnergyModel(mol, stack, movable=masks)
    BatchedMinimizer(model, cfg).run(
        callback=lambda it, rep: evaluated.append(rep.n_poses)
    )
    assert evaluated[-1] <= N_POSES
    assert min(evaluated) < N_POSES   # somebody converged early and dropped out
