"""Combinatorial presentations of quasi-regular Fano cone singularities.

A cone of complex dimension n is described by its Fano ratio r, a list of
isotropy strata of the circle action on the link (with rational Betti data
of the quotient orbifold pieces) and a list of cyclic-quotient charts
(m; w1,...,wn).  Charts are stored fiber-first: the first weight is the
fiber direction and must be coprime to m, which is the smooth-link
condition.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .rationals import format_rational, parse_rational

__all__ = [
    "ChartData",
    "ConePresentation",
    "MAX_CHART_ORDER",
    "SchemaError",
    "Stratum",
    "WeightedAction",
    "from_weighted_action",
    "input_from_dict",
    "presentation_to_dict",
    "validate_presentation",
]

PRINCIPAL_COMPONENT = "0"

# The largest chart order m accepted.  The md scan and the tower table are
# O(m) in time and memory (a weighted action has charts of order a_j), so
# a larger chart is refused up front rather than run out of time or memory.
MAX_CHART_ORDER = 10**6


class SchemaError(Exception):
    """Raised for malformed external input (JSON schema violations)."""


@dataclass(frozen=True)
class ChartData:
    """Cyclic quotient chart (m; w1,...,wn), fiber-first."""

    m: int
    weights: tuple
    label: str

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))

    def weights_of_power(self, k):
        """Weights (k*w_i mod m) of the k-th power of the chart generator."""
        return tuple((k * w) % self.m for w in self.weights)


@dataclass(frozen=True)
class Stratum:
    """A connected isotropy stratum with the Betti numbers of its quotient."""

    isotropy_order: int
    component_id: str
    complex_dim: int
    betti: tuple
    chart_ref: str

    def __post_init__(self):
        object.__setattr__(self, "betti", tuple(int(b) for b in self.betti))


@dataclass(frozen=True)
class ConePresentation:
    n: int
    r: Fraction
    strata: tuple
    charts: tuple

    def __post_init__(self):
        object.__setattr__(self, "r", Fraction(self.r))
        object.__setattr__(self, "strata", tuple(self.strata))
        object.__setattr__(self, "charts", tuple(self.charts))

    def chart(self, label):
        for c in self.charts:
            if c.label == label:
                return c
        raise KeyError("no chart labelled %r" % (label,))

    @property
    def principal_stratum(self):
        for s in self.strata:
            if s.isotropy_order == 1:
                return s
        raise ValueError("presentation has no principal stratum")

    @property
    def isotropy_orders(self):
        return sorted({s.isotropy_order for s in self.strata})

    @property
    def isotropy_lcm(self):
        return lcm(*[s.isotropy_order for s in self.strata])


@dataclass(frozen=True)
class WeightedAction:
    """Positive integer weights (a1,...,an) with gcd 1 acting on C^n."""

    a: tuple

    def __post_init__(self):
        weights = tuple(int(x) for x in self.a)
        if not weights:
            raise ValueError("weight list must be nonempty")
        if any(x < 1 for x in weights):
            raise ValueError("weights must be positive, got %r" % (weights,))
        if gcd(*weights) != 1:
            # Silent normalization would change the action; reject instead.
            raise ValueError("weights must have gcd 1, got %r" % (weights,))
        object.__setattr__(self, "a", weights)

    @property
    def n(self):
        return len(self.a)


def validate_presentation(p):
    """Return the list of violated invariants (empty when valid)."""
    violations = []
    if p.n < 2:
        violations.append("n must be at least 2, got %d" % p.n)
    if p.r <= 0:
        violations.append("Fano condition violated: r = %s <= 0" % format_rational(p.r))

    labels = [c.label for c in p.charts]
    orders = {s.isotropy_order for s in p.strata}
    named = {s.chart_ref for s in p.strata}
    for label in sorted(set(labels)):
        if labels.count(label) > 1:
            violations.append("duplicate chart label %r" % label)
    for c in p.charts:
        if c.m < 1:
            violations.append("chart %r: m must be positive" % c.label)
            continue
        found = len(violations)
        if c.m > MAX_CHART_ORDER:
            violations.append(
                "chart %r: m=%d exceeds the chart order limit MAX_CHART_ORDER = %d"
                % (c.label, c.m, MAX_CHART_ORDER)
            )
        if len(c.weights) != p.n:
            violations.append(
                "chart %r: expected %d weights, got %d" % (c.label, p.n, len(c.weights))
            )
        if any(not (0 <= w < c.m) for w in c.weights):
            violations.append("chart %r: weights must lie in [0, m)" % c.label)
        if c.weights and gcd(c.m, c.weights[0]) != 1:
            violations.append("chart %r: gcd(m,w1)!=1 (link not smooth)" % c.label)
        if c.m > 1 and c.m not in orders:
            # The chart's centre has isotropy Z_m, so some stratum must carry it.
            violations.append("chart %r: no stratum has isotropy order m=%d" % (c.label, c.m))
        if c.m > 1 and c.weights and c.label not in named and len(violations) == found:
            # A chart no stratum names must be a named chart of order M
            # divisible by m with its weights mod m (how its subgroup Z_m
            # acts), times one unit u of Z_m; the fibre weights fix u.
            tail = c.weights[1:]
            inverse = pow(c.weights[0], -1, c.m)
            if not any(
                sorted(w % c.m for w in t.weights[1:])
                == sorted(t.weights[0] * inverse * w % c.m for w in tail)
                for t in p.charts
                if t.label in named and t.m > 0 and t.m % c.m == 0 and len(t.weights) == p.n
            ):
                violations.append("chart %r: no stratum names it, and no named chart of "
                                  "order divisible by m=%d matches it up to a unit of Z_m"
                                  % (c.label, c.m))

    principal = [s for s in p.strata if s.isotropy_order == 1]
    if not principal:
        violations.append("no isotropy-1 stratum")
    elif len(principal) > 1:
        violations.append("more than one isotropy-1 stratum")
    elif principal[0].complex_dim != p.n - 1:
        violations.append(
            "principal stratum must have complex_dim n-1 = %d, got %d"
            % (p.n - 1, principal[0].complex_dim)
        )

    chart_labels = set(labels)
    for s in p.strata:
        where = "stratum (|G|=%d, %r)" % (s.isotropy_order, s.component_id)
        if s.isotropy_order < 1:
            violations.append("%s: isotropy order must be positive" % where)
            continue
        if s.chart_ref not in chart_labels:
            violations.append("%s: chart_ref %r does not resolve" % (where, s.chart_ref))
        else:
            chart = p.chart(s.chart_ref)
            if chart.m % s.isotropy_order != 0:
                violations.append(
                    "%s: chart %r has m=%d not divisible by isotropy order"
                    % (where, s.chart_ref, chart.m)
                )
        if len(s.betti) != 2 * s.complex_dim + 1:
            violations.append(
                "%s: betti must have length 2*complex_dim+1 = %d, got %d"
                % (where, 2 * s.complex_dim + 1, len(s.betti))
            )
        if not s.betti or s.betti[0] < 1:
            violations.append("%s: b0 must be at least 1" % where)
        if any(b < 0 for b in s.betti):
            violations.append("%s: betti numbers must be nonnegative" % where)
    return violations


def divisors(x):
    """The positive divisors of x >= 1, in increasing order."""
    low, high = [], []
    i = 1
    while i * i <= x:
        if x % i == 0:
            low.append(i)
            if i * i != x:
                high.append(x // i)
        i += 1
    return low + high[::-1]


def _projective_betti(dim):
    """Rational Betti numbers of P^dim: 1 in each even degree 0..2*dim."""
    return tuple(1 if j % 2 == 0 else 0 for j in range(2 * dim + 1))


def from_weighted_action(w):
    """Presentation of C^n with the weighted circle action of ``w``.

    The Fano ratio is the weight sum.  Strata correspond to the isotropy
    orders realized as gcds of weight subsets; the stratum of order d is
    the weighted projective space on the weights divisible by d.  The
    chart at axis j is (a_j; 1, (a_j - a_i mod a_j) for i != j).
    """
    a = w.a
    n = w.n
    if max(a) > MAX_CHART_ORDER:
        raise ValueError(
            "weight %d exceeds the chart order limit MAX_CHART_ORDER = %d"
            % (max(a), MAX_CHART_ORDER)
        )
    r = Fraction(sum(a))

    charts = []
    for j, aj in enumerate(a):
        weights = [1 % aj]
        for i, ai in enumerate(a):
            if i != j:
                weights.append((aj - ai) % aj)
        charts.append(ChartData(m=aj, weights=tuple(weights), label="axis%d" % (j + 1)))

    # A realized order is the gcd of the weights it divides, so it divides
    # one of the weights.
    support = {}
    for d in sorted({d for ai in set(a) for d in divisors(ai)}):
        axes = [i for i, ai in enumerate(a) if ai % d == 0]
        if gcd(*[a[i] for i in axes]) == d:
            support[d] = axes

    strata = []
    for d, axes in support.items():
        dim = len(axes) - 1
        chart_ref = charts[axes[0]].label
        strata.append(
            Stratum(
                isotropy_order=d,
                component_id=PRINCIPAL_COMPONENT,
                complex_dim=dim,
                betti=_projective_betti(dim),
                chart_ref=chart_ref,
            )
        )
    return ConePresentation(n=n, r=r, strata=tuple(strata), charts=tuple(charts))


# ---------------------------------------------------------------------------
# External JSON format ("fanocone/1")

FORMAT_TAG = "fanocone/1"


@dataclass(frozen=True)
class InputData:
    presentation: ConePresentation
    weighted: object  # WeightedAction or None
    homology_sphere_link: bool


def _require_keys(obj, allowed, required, where):
    if not isinstance(obj, dict):
        raise SchemaError("%s: expected an object" % where)
    for key in obj:
        if key not in allowed:
            raise SchemaError("%s: unknown field %r" % (where, key))
    for key in required:
        if key not in obj:
            raise SchemaError("%s: missing field %r" % (where, key))


def _int_field(obj, key, where):
    v = obj[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise SchemaError("%s: field %r must be an integer" % (where, key))
    return v


def input_from_dict(d):
    """Parse a top-level input object; raises SchemaError."""
    _require_keys(
        d,
        allowed={"format", "kind", "weights", "n", "r", "strata", "charts",
                 "homology_sphere_link"},
        required={"format", "kind"},
        where="input",
    )
    if d["format"] != FORMAT_TAG:
        raise SchemaError("unsupported format %r (expected %r)" % (d["format"], FORMAT_TAG))
    hsl = d.get("homology_sphere_link", False)
    if not isinstance(hsl, bool):
        raise SchemaError("homology_sphere_link must be a boolean")

    kind = d["kind"]
    if kind == "weighted_action":
        _require_keys(
            d,
            allowed={"format", "kind", "weights", "homology_sphere_link"},
            required={"weights"},
            where="weighted_action input",
        )
        weights = d["weights"]
        if not isinstance(weights, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in weights
        ):
            raise SchemaError("weights must be an integer array")
        try:
            action = WeightedAction(tuple(weights))
            presentation = from_weighted_action(action)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
        return InputData(
            presentation=presentation,
            weighted=action,
            homology_sphere_link=hsl,
        )
    if kind == "presentation":
        _require_keys(
            d,
            allowed={"format", "kind", "n", "r", "strata", "charts",
                     "homology_sphere_link"},
            required={"n", "r", "strata", "charts"},
            where="presentation input",
        )
        n = _int_field(d, "n", "presentation")
        try:
            r = parse_rational(d["r"])
        except ValueError as exc:
            raise SchemaError("presentation: %s" % exc) from exc
        charts = []
        if not isinstance(d["charts"], list):
            raise SchemaError("charts must be an array")
        for i, c in enumerate(d["charts"]):
            where = "charts[%d]" % i
            _require_keys(c, {"m", "weights", "label"}, {"m", "weights", "label"}, where)
            if not isinstance(c["weights"], list):
                raise SchemaError("%s: weights must be an array" % where)
            if not isinstance(c["label"], str):
                raise SchemaError("%s: label must be a string" % where)
            charts.append(
                ChartData(
                    m=_int_field(c, "m", where),
                    weights=tuple(_int_field({"w": x}, "w", where) for x in c["weights"]),
                    label=c["label"],
                )
            )
        strata = []
        if not isinstance(d["strata"], list):
            raise SchemaError("strata must be an array")
        for i, s in enumerate(d["strata"]):
            where = "strata[%d]" % i
            keys = {"isotropy_order", "component_id", "complex_dim", "betti", "chart_ref"}
            _require_keys(s, keys, keys, where)
            if not isinstance(s["component_id"], str) or not isinstance(s["chart_ref"], str):
                raise SchemaError("%s: component_id and chart_ref must be strings" % where)
            if not isinstance(s["betti"], list):
                raise SchemaError("%s: betti must be an array" % where)
            strata.append(
                Stratum(
                    isotropy_order=_int_field(s, "isotropy_order", where),
                    component_id=s["component_id"],
                    complex_dim=_int_field(s, "complex_dim", where),
                    betti=tuple(_int_field({"b": x}, "b", where) for x in s["betti"]),
                    chart_ref=s["chart_ref"],
                )
            )
        pres = ConePresentation(n=n, r=r, strata=tuple(strata), charts=tuple(charts))
        return InputData(presentation=pres, weighted=None, homology_sphere_link=hsl)
    raise SchemaError("unknown kind %r" % (kind,))


def presentation_to_dict(p):
    """Serialize a presentation to the fanocone/1 JSON object."""
    return {
        "format": FORMAT_TAG,
        "kind": "presentation",
        "n": p.n,
        "r": format_rational(p.r),
        "strata": [
            {
                "isotropy_order": s.isotropy_order,
                "component_id": s.component_id,
                "complex_dim": s.complex_dim,
                "betti": list(s.betti),
                "chart_ref": s.chart_ref,
            }
            for s in p.strata
        ],
        "charts": [
            {"m": c.m, "weights": list(c.weights), "label": c.label} for c in p.charts
        ],
    }
