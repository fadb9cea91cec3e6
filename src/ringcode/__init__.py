"""Scalar linear network coding over finite commutative rings.

Modules: ``rings`` (exact catalog-ring arithmetic and the ring
expression grammar), ``partitions`` (partition division and maximal
partitions), ``dominance`` (the dominance quasi-order, partition rings and
maximal-ring enumeration), ``network`` (networks, scalar linear codes, the
exhaustive solver and solution transforms, over the private search kernel
``_kernel``), ``cli`` (command-line frontend).
"""

from .dominance import (
    DominanceVerdict,
    PartitionRing,
    Relation,
    catalog_dominates,
    check_certificate,
    field_product_dominates,
    is_maximal_ring,
    maximal_rings,
    partition_ring_of,
    smallest_field_refuge,
    square_free_fields,
    to_partition_ring,
    zmod_dominates,
)
from .network import (
    Network,
    ScalarLinearCode,
    TransferVector,
    choose_two,
    choose_two_field_solution,
    decode_search,
    lift_subring,
    map_code,
    product_code,
    solve_brute,
    transfer,
    two_six,
    validate,
    verify,
)
from .partitions import (
    Partition,
    divides,
    enumerate_partitions,
    has_unique_maximal,
    is_len2_maximal,
    is_maximal,
    maximal_partitions,
    parse_partition,
)
from .rings import (
    DualNumbers,
    GaloisField,
    IntegersMod,
    PrimeField,
    Product,
    RingElement,
    RingHom,
    RingSpec,
    add,
    apply_hom,
    canonicalize,
    characteristic,
    crt,
    dual_augmentation,
    element,
    elements,
    find_irreducible,
    format_element,
    format_ring,
    galois_field,
    inverse,
    mod_reduction,
    mul,
    neg,
    one,
    parse_element,
    parse_ring,
    projection,
    ring_size,
    subring_inclusion,
    zero,
)

__version__ = "0.1.0"
