"""First page of the period-filtration spectral sequence and its profile.

Every orbit family contributes the homology of its stratum, shifted so
the degree of the H_j block entry is lcz + j; the filtration index is
N * period with N the lcm of the isotropy orders.  The page is read off
the command's tower table (reeb_orbits.tower_table) and keyed by
integers: (filtration, degree numerator, z2), every degree a numerator
over the page's L, the lcm of the table's denominators D.  Its degree
cut, key order and rank sums run on those integers; a Fraction is built
only for SHProfile, once per distinct degree.  When the page is
monochromatic in the Z2 grading every differential vanishes and the page
computes the homology outright; otherwise only the minimal nonzero
degree is certified, via the survivor argument.  With b0 >= 1 validated
for every stratum, that argument reduces to reading the degree of the
minimal H_0 entry (see certify_min_degree).
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter

from .reeb_orbits import _tower_families

__all__ = [
    "CertificationError",
    "E1Entry",
    "E1Page",
    "SHProfile",
    "assemble_e1",
    "certify_min_degree",
    "degenerate_ranks",
    "expected_sh_homology_ball",
]


class CertificationError(Exception):
    """The structural hypotheses of the survivor argument failed."""


@dataclass(frozen=True)
class E1Entry:
    rank: int
    family: object  # OrbitFamily generating the block
    homology_degree: int  # j, the stratum-homology degree


@dataclass(frozen=True)
class E1Page:
    n: int
    N: int
    # The lcm of the tower table's denominators D: every degree on the
    # page is an integer numerator over L.
    L: int
    max_degree: Fraction
    # (filtration p, degree numerator over L, z2 grade) -> tuple of entries
    entries: dict

    def keys_sorted(self):
        """The keys by degree, then filtration, then grade."""
        return sorted(self.entries, key=itemgetter(1, 0, 2))


@dataclass(frozen=True)
class SHProfile:
    min_degree: Fraction
    degenerate: bool
    ranks: dict  # degree -> rank in increasing degree, populated only when degenerate


def assemble_e1(table, max_degree):
    """All page entries of total degree at most max_degree, read off the
    tower table.

    Completeness comes from the degree bound of each orbit tower: an entry
    has degree lcz + j >= lcz, and loop ell of a tower has lcz equal to
    (lcz0 + ell*shift)/D with shift > 0, so the loops that can carry an
    entry are exactly those with lcz0 + ell*shift <= max_degree*D, counted
    in integers.  The filtration index N * period is the integer
    ell*N + k*(N // |G|), and the degree lcz + j the integer numerator
    (lcz_num + j*D) * (L // D) over the page's L, cut at
    floor(max_degree * L).
    """
    max_degree = Fraction(max_degree)
    top, bottom = max_degree.numerator, max_degree.denominator
    p = table.presentation
    n = p.n
    L = lcm(*(column.D for column in table.strata))
    rows = []
    for column in table.strata:
        D, shift, first = column.D, column.shift, column.first_ell
        # lcz0 = lsft0 - (n-3)*D; the first loop is under the bound when
        # lcz0 + first*shift <= max_degree*D.
        limit = top * D // bottom + (n - 3) * D - first * shift
        for k, lsft0 in zip(column.ks, column.lsft0):
            if lsft0 <= limit:
                lcz0 = lsft0 - (n - 3) * D
                stop = (top * D - bottom * lcz0) // (bottom * shift) + 1
                rows.append((column, k, lsft0, stop))
    N = p.isotropy_lcm
    cut = top * L // bottom

    strata = {(s.isotropy_order, s.component_id): s for s in p.strata}
    entries = {}
    for family in _tower_families(table, rows):
        d = family.isotropy_order
        filtration = family.ell * N + family.k * (N // d)
        degree = family.lcz_num * (L // family.D)
        for j, bj in enumerate(strata[(d, family.component_id)].betti):
            if degree > cut:
                break
            if bj:
                entries.setdefault((filtration, degree, (n - 1 + j) % 2), []).append(
                    E1Entry(rank=bj, family=family, homology_degree=j)
                )
            degree += L
    frozen = {key: tuple(val) for key, val in entries.items()}
    return E1Page(n=n, N=N, L=L, max_degree=max_degree, entries=frozen)


def certify_min_degree(page):
    """Minimal nonzero degree, certified by the Z2 survivor argument.

    The candidate is the H_0 class of minimal degree and maximal
    filtration cand_p.  A differential hitting it would come from an entry
    of opposite Z2 grade one degree up at a filtration q > cand_p, in a
    block whose family has lcz <= min_degree.  No entry lies below
    min_degree, so that family has lcz == min_degree, and since every
    stratum has b0 >= 1 (validated) its own H_0 entry sits at
    (q, min_degree): a candidate, so q <= cand_p.  No such attacker can
    exist on a page of a validated presentation, and the certificate is
    the H_0 entry at the minimal degree; the page must hold one.
    """
    if not page.entries:
        raise CertificationError("empty page")
    min_degree = min(key[1] for key in page.entries)
    if not any(
        key[1] == min_degree and any(e.homology_degree == 0 for e in entries)
        for key, entries in page.entries.items()
    ):
        raise CertificationError("no H_0 entry at the minimal degree")
    return SHProfile(min_degree=Fraction(min_degree, page.L), degenerate=False, ranks={})


def degenerate_ranks(page):
    """Full ranks when the page is monochromatic (all differentials die),
    summed per integer degree and keyed by the degree's Fraction, in
    increasing degree."""
    if not page.entries:
        raise CertificationError("empty page")
    shades = {key[2] for key in page.entries}
    if len(shades) > 1:
        return certify_min_degree(page)
    ranks = {}
    for (_, degree, _), entries in page.entries.items():
        ranks[degree] = ranks.get(degree, 0) + sum(e.rank for e in entries)
    ranks = {Fraction(degree, page.L): ranks[degree] for degree in sorted(ranks)}
    return SHProfile(min_degree=next(iter(ranks)), degenerate=True, ranks=ranks)


def expected_sh_homology_ball(n, max_degree):
    """Oracle table for links bounding a homology ball: rank 1 in degrees
    n+1, n+3, ... up to max_degree."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return {Fraction(d): 1 for d in range(n + 1, int(max_degree) + 1, 2)}
