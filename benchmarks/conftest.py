"""Shared benchmark fixtures: real small-scale workloads + model helpers.

Every benchmark module regenerates one paper artifact (its docstring names
the table or figure): it *measures* the real algorithms at laptop scale
with pytest-benchmark, and *prints* the paper-vs-model comparison at the
paper's N=128 scale (run with ``-s`` to see the tables).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.grids.energyfunctions import protein_grids
from repro.grids.gridding import GridSpec
from repro.grids.rotation import ligand_grid_spec, rotate_and_grid_ligand
from repro.minimize import EnergyModel
from repro.structure import build_probe, synthetic_complex, synthetic_protein
from repro.structure.builder import pocket_movable_mask


def _print_rows(title, rows):
    from repro.perf.tables import render_table

    print()
    print(render_table(title, rows))


@pytest.fixture(scope="session")
def print_comparison():
    return _print_rows


@pytest.fixture(scope="session")
def bench_protein():
    return synthetic_protein(n_residues=60, seed=3)


@pytest.fixture(scope="session")
def bench_probe():
    return build_probe("ethanol")


@pytest.fixture(scope="session")
def bench_receptor_grids(bench_protein):
    spec = GridSpec.centered_on(bench_protein, n=48, spacing=1.25)
    return protein_grids(bench_protein, spec, n_desolvation_terms=4)


@pytest.fixture(scope="session")
def bench_ligand_grids(bench_probe):
    spec = ligand_grid_spec(bench_probe, n=4, spacing=1.25)
    return rotate_and_grid_ligand(bench_probe, np.eye(3), spec, n_desolvation_terms=4)


@pytest.fixture(scope="session")
def bench_energy_model():
    mol = synthetic_complex(n_residues=344, seed=7)  # paper scale: ~2200 atoms
    mask = pocket_movable_mask(mol, mol.meta["n_probe_atoms"])
    model = EnergyModel(mol, movable=mask)
    model.neighbor_list()  # build once outside the timed region
    return model
