"""The all-pairs homomorphism check, kept as an oracle for the library's.

``verify_hom_table_all_pairs`` checks the ring laws of a payload table on
every pair of source elements through the checked ``add``/``mul``;
``rings._verify_hom_table`` checks them on the source's additive generators
only, which implies the same laws.
"""

from ringcode.rings import add, arithmetic, elements, mul, one, zero


def verify_hom_table_all_pairs(source, target, table: dict):
    """Raise ValueError unless table (source payload -> target payload) is an
    injective map that keeps 0 and 1 and is additive and multiplicative on
    all q_src^2 pairs."""
    src = elements(source)
    if table[zero(source).payload] != zero(target).payload:
        raise ValueError("inclusion does not preserve zero")
    if table[one(source).payload] != one(target).payload:
        raise ValueError("inclusion does not preserve one")
    imgs = {a.payload: arithmetic(target).element(table[a.payload]) for a in src}
    for a in src:
        fa = imgs[a.payload]
        for b in src:
            if table[add(a, b).payload] != add(fa, imgs[b.payload]).payload:
                raise ValueError("inclusion is not additive")
            if table[mul(a, b).payload] != mul(fa, imgs[b.payload]).payload:
                raise ValueError("inclusion is not multiplicative")
    if len(set(table.values())) != len(table):
        raise ValueError("inclusion is not injective")
