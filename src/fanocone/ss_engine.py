"""First page of the period-filtration spectral sequence and its profile.

Every orbit family contributes the homology of its stratum, shifted so
the degree of the H_j block entry is lcz + j; the filtration index is
N * period with N the lcm of the isotropy orders.  When the page is
monochromatic in the Z2 grading every differential vanishes and the page
computes the homology outright; otherwise only the minimal nonzero
degree is certified, via the survivor argument.
"""

from dataclasses import dataclass
from fractions import Fraction

from .reeb_orbits import _tower_families, orbit_towers

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
    max_degree: Fraction
    # (filtration p, total degree, z2 grade) -> tuple of entries
    entries: dict

    def keys_sorted(self):
        return sorted(self.entries, key=lambda key: (key[1], key[0], key[2]))


@dataclass(frozen=True)
class SHProfile:
    min_degree: Fraction
    degenerate: bool
    ranks: dict  # degree -> rank, populated only when degenerate


def assemble_e1(p, max_degree):
    """All page entries of total degree at most max_degree.

    Completeness comes from the degree bound of each orbit tower: an entry
    has degree lcz + j >= lcz, and loop ell of a tower has lcz equal to
    (lcz0 + ell*shift)/D with shift > 0, so the loops that can carry an
    entry are exactly those with lcz0 + ell*shift <= max_degree*D, counted
    in integers.  Every tower's dimension is checked, whether or not one
    of its loops is under the bound.
    The filtration index N * period is the integer ell*N + k*(N // |G|).
    """
    max_degree = Fraction(max_degree)
    top, bottom = max_degree.numerator, max_degree.denominator
    spans = []
    for tower in orbit_towers(p):  # validates p, so R > 0
        tower.check_dimension()
        stop = (top * tower.D - bottom * tower.lcz0) // (bottom * tower.shift) + 1
        if stop > tower.first_ell:
            spans.append((tower, stop))
    n = p.n
    N = p.isotropy_lcm

    strata = {(s.isotropy_order, s.component_id): s for s in p.strata}
    entries = {}
    for family in _tower_families(p, spans):
        filtration = family.ell * N + family.k * (N // family.isotropy_order)
        stratum = strata[(family.isotropy_order, family.component_id)]
        for j, bj in enumerate(stratum.betti):
            if bj == 0:
                continue
            degree = family.lcz + j
            if degree > max_degree:
                continue
            entries.setdefault((filtration, degree, (n - 1 + j) % 2), []).append(
                E1Entry(rank=bj, family=family, homology_degree=j)
            )
    frozen = {key: tuple(val) for key, val in entries.items()}
    return E1Page(n=n, N=N, max_degree=max_degree, entries=frozen)


def certify_min_degree(page):
    """Minimal nonzero degree, certified by the Z2 survivor argument.

    The candidate is the H_0 class of minimal degree and maximal
    filtration.  Any differential hitting it would come from an entry of
    opposite Z2 grade one degree up with strictly larger filtration,
    sitting in a block whose leading H_0 term undercuts the candidate;
    the certifier checks no such entry exists.
    """
    if not page.entries:
        raise CertificationError("empty page")
    min_degree = min(key[1] for key in page.entries)
    candidates = [
        key
        for key, entries in page.entries.items()
        if key[1] == min_degree and any(e.homology_degree == 0 for e in entries)
    ]
    if not candidates:
        raise CertificationError("no H_0 entry at the minimal degree")
    cand_p = max(key[0] for key in candidates)
    cand_z2 = (page.n - 1) % 2
    for (q, degree, z2), entries in page.entries.items():
        if degree != min_degree + 1 or z2 == cand_z2 or q <= cand_p:
            continue
        for entry in entries:
            # Leading H_0 term of the attacking block sits at the same
            # filtration with degree lcz of the generating family.
            if entry.family.lcz <= min_degree:
                raise CertificationError(
                    "survivor argument violated by block at p=%d degree %s" % (q, degree)
                )
    return SHProfile(min_degree=min_degree, degenerate=False, ranks={})


def degenerate_ranks(page):
    """Full ranks when the page is monochromatic (all differentials die)."""
    if not page.entries:
        raise CertificationError("empty page")
    shades = {key[2] for key in page.entries}
    if len(shades) > 1:
        return certify_min_degree(page)
    ranks = {}
    for (_, degree, _), entries in page.entries.items():
        ranks[degree] = ranks.get(degree, 0) + sum(e.rank for e in entries)
    min_degree = min(ranks)
    return SHProfile(min_degree=min_degree, degenerate=True, ranks=ranks)


def expected_sh_homology_ball(n, max_degree):
    """Oracle table for links bounding a homology ball: rank 1 in degrees
    n+1, n+3, ... up to max_degree."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return {Fraction(d): 1 for d in range(n + 1, int(max_degree) + 1, 2)}
