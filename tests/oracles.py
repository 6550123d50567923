"""Enumeration oracles for the partition sums.

They sum over the tuples with a given kernel one by one, independently of
the Mobius walk in ``sagm.symsum`` that they check.  ``tuples_with_kernel``
caps n at 12.
"""

import numpy as np

from sagm.partitions import tuples_with_kernel


def partition_sum(fam, sigma):
    """[sigma]: sum over tuples with kernel sigma of
    A_{ij}* ... A_{i1}* A_{i1} ... A_{ij} (innermost factor at position 1)."""
    out = np.zeros((fam.m, fam.m), dtype=complex)
    for tup in tuples_with_kernel(fam.n, sigma):
        x = np.eye(fam.m, dtype=complex)
        for p in tup:
            a = fam.ops[p - 1]
            x = a.conj().T @ x @ a
        out += x
    return out


def folded_sum(fam, sigma):
    """[[sigma]]: the partition sum with a (1 - A*A) inserted at position 1."""
    eye = np.eye(fam.m, dtype=complex)
    direct = np.zeros((fam.m, fam.m), dtype=complex)
    for tup in tuples_with_kernel(fam.n, sigma):
        a1 = fam.ops[tup[0] - 1]
        x = eye - a1.conj().T @ a1
        for p in tup[1:]:
            a = fam.ops[p - 1]
            x = a.conj().T @ x @ a
        direct += x
    return direct
