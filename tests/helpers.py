"""Helpers shared by the test modules."""

from itertools import combinations


def canonical_keys(tensor):
    """All canonical index tuples of a ``PolyTensor``: strictly increasing
    in antisymmetric blocks, every combination elsewhere."""
    blocks = []
    for dim, arity, antisym in tensor.groups:
        if antisym:
            blocks.append(list(combinations(range(dim), arity)))
        else:
            block = [()]
            for _ in range(arity):
                block = [b + (i,) for b in block for i in range(dim)]
            blocks.append(block)
    keys = [()]
    for block in blocks:
        keys = [k + b for k in keys for b in block]
    return keys
