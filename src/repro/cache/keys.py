"""Stable content keys for cached artifacts.

A cache entry must never outlive the meaning of its key, so keys derive
from the *content* of the inputs — coordinates, per-atom parameters, grid
geometry, workload fields — never from object identity.  Structurally
equal receptors therefore hit across object lifetimes and (with the disk
tier) across processes, and a recycled ``id()`` can never alias another
object's artifacts.

Every key embeds :data:`CACHE_FORMAT_VERSION`; bumping it invalidates all
previously stored artifacts at once — the escape hatch when a builder's
semantics change (new channel definitions, different eigenterm
construction, ...).

The helpers here are duck-typed on purpose: they read ``coords`` /
``channels`` / ``origin`` attributes instead of importing the structure
and grid modules, so :mod:`repro.cache` sits below every other package and
can be imported from anywhere without cycles.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

__all__ = [
    "CACHE_FORMAT_VERSION",
    "hash_parts",
    "array_token",
    "float_token",
    "molecule_token",
    "grid_spec_token",
    "rotation_set_token",
    "mapping_token",
    "compose_key",
]

#: Global artifact-format version.  Part of every key: bump to invalidate
#: every previously cached artifact after a semantic change.
CACHE_FORMAT_VERSION = 1

#: Attribute used to memoize a token on hashed objects, so a molecule keyed
#: again and again (a sweep's receptor) has its arrays hashed only once.
_MEMO_ATTR = "_repro_cache_token"


def _as_bytes(part) -> bytes:
    if isinstance(part, bytes):
        return part
    if isinstance(part, str):
        return part.encode("utf-8")
    if isinstance(part, float):
        return float(part).hex().encode("ascii")
    if part is None or isinstance(part, (bool, int)):
        return str(part).encode("ascii")
    # Arbitrary objects stringify with id()-dependent reprs — silently
    # accepting them would make keys unstable across processes.
    raise TypeError(f"cannot derive a stable key from {type(part).__name__}")


def hash_parts(*parts) -> str:
    """SHA-256 hex digest over length-delimited parts.

    Length delimiting keeps the digest injective over the part sequence
    (``("ab", "c")`` never collides with ``("a", "bc")``).
    """
    h = hashlib.sha256()
    for part in parts:
        b = _as_bytes(part)
        h.update(str(len(b)).encode("ascii"))
        h.update(b":")
        h.update(b)
    return h.hexdigest()


def array_token(arr: np.ndarray) -> bytes:
    """Canonical bytes of an array: dtype tag + shape + C-order payload."""
    a = np.ascontiguousarray(arr)
    head = f"{a.dtype.str}|{a.shape}|".encode("ascii")
    return head + a.tobytes()


def float_token(value: float) -> str:
    """Exact, platform-stable text form of a float (hex, no rounding)."""
    return float(value).hex()


def molecule_token(molecule) -> str:
    """Content token of a :class:`~repro.structure.molecule.Molecule`.

    Hashes everything the gridding and docking code reads off a molecule:
    coordinates, the resolved per-atom parameters (which fold in the force
    field), atom-type names (the desolvation eigenterms key off them) and
    the bonded topology.  The human-readable ``name`` and free-form
    ``meta`` are deliberately excluded — they never influence artifacts.

    Memoized on the instance (molecules flow
    through the pipeline as immutable value objects — mutation goes via
    ``with_coords`` copies, which start unmemoized), so sweeps re-keying
    the same receptor per variant hash its arrays only once.
    """
    memo = getattr(molecule, _MEMO_ATTR, None)
    if memo is not None:
        return memo
    topo = molecule.topology
    token = hash_parts(
        "molecule",
        array_token(molecule.coords),
        ";".join(molecule.type_names),
        array_token(molecule.charges),
        array_token(molecule.eps),
        array_token(molecule.rm),
        array_token(molecule.born_radii),
        array_token(molecule.volumes),
        array_token(molecule.masses),
        array_token(topo.bonds),
        array_token(topo.angles),
        array_token(topo.dihedrals),
        array_token(topo.impropers),
    )
    try:
        setattr(molecule, _MEMO_ATTR, token)
    except AttributeError:
        pass
    return token


def grid_spec_token(spec) -> str:
    """Token of a :class:`~repro.grids.gridding.GridSpec` (exact floats)."""
    origin = ",".join(float_token(v) for v in spec.origin)
    return f"gridspec:n={spec.n};h={float_token(spec.spacing)};o={origin}"


def rotation_set_token(num_rotations: int, scheme: str) -> str:
    """Token of a docking rotation set.

    :func:`repro.geometry.sampling.rotation_set` is deterministic in
    ``(n, scheme)``, so the parameters fully identify the matrices; a
    change to the sampling algorithm itself is a
    :data:`CACHE_FORMAT_VERSION` bump.
    """
    return f"rotations:n={int(num_rotations)};scheme={scheme}"


def mapping_token(**fields) -> str:
    """Canonical ``k=v`` token over keyword fields (sorted, exact floats)."""
    items = []
    for k in sorted(fields):
        v = fields[k]
        if isinstance(v, float):
            v = float_token(v)
        elif isinstance(v, (tuple, list)):
            v = ",".join(str(x) for x in v)
        items.append(f"{k}={v}")
    return ";".join(items)


def compose_key(namespace: str, parts: Iterable) -> str:
    """Final store key: ``namespace/<sha256 over version + parts>``.

    The namespace stays readable (it becomes the on-disk subdirectory and
    supports prefix-clearing); the digest carries all content.
    """
    digest = hash_parts(f"v{CACHE_FORMAT_VERSION}", *parts)
    return f"{namespace}/{digest}"
