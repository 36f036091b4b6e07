"""Burnside Tambara functor of a finite cyclic group.

Exact-arithmetic computation of Burnside rings A(C_h), their ghost
embedding, the Tambara structure maps (restriction, transfer, norm),
the prime ideals indexed by a subgroup and a prime-or-zero, and the full
prime spectrum with its containment lattice; everything is validated
against a brute-force G-set oracle.  The package root exports what the
demos and the README use; everything else lives in its submodule.
"""

from .burnside import (
    BurnsideElement,
    GhostVector,
    NotInGhostImage,
    from_t,
    ghost,
    unghost,
)
from .gsets import (
    decompose,
    map_set,
    realize,
)
from .ideals import (
    IdealSpec,
    kernel_lattice,
    level_generators,
    member,
    primality_probe,
    psi,
    q_check,
    ring_ideal_lattice,
)
from .lattice import (
    CyclicGroupCtx,
    divisors,
    omega,
    s_partition,
)
from .maps import (
    norm,
    norm_ghost,
    restrict,
    transfer,
)
from .spectrum import (
    contains,
    contains_semantic,
    default_primes,
    dress_spectrum,
    enumerate_spectrum,
    export_dot,
    export_json,
    hasse_edges,
    krull_dimension,
    poset_from_json,
)

__all__ = [
    "BurnsideElement",
    "GhostVector",
    "NotInGhostImage",
    "from_t",
    "ghost",
    "unghost",
    "decompose",
    "map_set",
    "realize",
    "IdealSpec",
    "kernel_lattice",
    "level_generators",
    "member",
    "primality_probe",
    "psi",
    "q_check",
    "ring_ideal_lattice",
    "CyclicGroupCtx",
    "divisors",
    "omega",
    "s_partition",
    "norm",
    "norm_ghost",
    "restrict",
    "transfer",
    "contains",
    "contains_semantic",
    "default_primes",
    "dress_spectrum",
    "enumerate_spectrum",
    "export_dot",
    "export_json",
    "hasse_edges",
    "krull_dimension",
    "poset_from_json",
]

__version__ = "0.1.0"
