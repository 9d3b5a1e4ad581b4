"""Attribute weight-ratio ranges (the eclipse query parameter).

The eclipse operator (Definition 3 in the paper) is parameterised by one
closed interval ``[l_j, h_j]`` per attribute-weight *ratio*
``r[j] = w[j] / w[d]`` for ``j = 1 .. d-1``; the last weight is fixed to
``w[d] = 1``.  This module provides:

* :class:`WeightRange` — a single ``[l, h]`` interval with validation.
* :class:`RatioVector` — the full vector of ``d-1`` intervals, including the
  corner-weight-vector enumeration used by Theorems 1/2 and the baseline
  algorithm, and the selected ``d`` domination vectors used by the
  transformation algorithm (Theorem 6).
* User-facing helpers mirroring Section I and the case-study systems of
  Section V-B: exact weight vectors (1NN), weight intervals
  (eclipse-weight), categorical importance levels (eclipse-category), and
  angle ranges (the ``angle`` parameter of Table IV).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import InvalidWeightRangeError

#: Sentinel used to express "no upper bound" on a ratio, which instantiates
#: the skyline end of the eclipse spectrum.  A finite but very large value is
#: used so that corner weight vectors remain ordinary floating point numbers.
RATIO_INFINITY: float = 1e12


class ImportanceCategory(enum.Enum):
    """Categorical relative-importance levels for the eclipse-category system.

    The paper envisions users describing how important attribute ``j`` is
    relative to the last attribute using one of five categories instead of a
    numeric range (Section I and the case study in Section V-B).  The exact
    numeric ranges are not given in the paper; the presets below follow the
    obvious symmetric construction around "similar" (ratio close to 1).
    """

    VERY_IMPORTANT = "very_important"
    IMPORTANT = "important"
    SIMILAR = "similar"
    UNIMPORTANT = "unimportant"
    VERY_UNIMPORTANT = "very_unimportant"


#: Ratio range associated with each categorical importance level.
_CATEGORY_RANGES = {
    ImportanceCategory.VERY_IMPORTANT: (4.0, RATIO_INFINITY),
    ImportanceCategory.IMPORTANT: (1.5, 4.0),
    ImportanceCategory.SIMILAR: (2.0 / 3.0, 1.5),
    ImportanceCategory.UNIMPORTANT: (0.25, 2.0 / 3.0),
    ImportanceCategory.VERY_UNIMPORTANT: (0.0, 0.25),
}


@dataclass(frozen=True)
class WeightRange:
    """A closed interval ``[low, high]`` for one attribute-weight ratio.

    Parameters
    ----------
    low:
        Lower bound ``l_j`` of the ratio ``w[j] / w[d]``.  Must be finite and
        non-negative.
    high:
        Upper bound ``h_j``.  Must satisfy ``high >= low``.  ``math.inf`` is
        accepted and silently clamped to :data:`RATIO_INFINITY`.

    A degenerate range (``low == high``) recovers 1NN semantics on that
    dimension; ``[0, RATIO_INFINITY]`` recovers skyline semantics.
    """

    # Every ratio vector holds d - 1 of these: no per-instance dict.
    __slots__ = ("low", "high")

    low: float
    high: float

    def __reduce__(self):
        # Frozen and slotted: unpickle through the constructor.
        return (WeightRange, (self.low, self.high))

    def __post_init__(self) -> None:
        low = float(self.low)
        high = float(self.high)
        if math.isinf(high):
            high = RATIO_INFINITY
        if math.isnan(low) or math.isnan(high):
            raise InvalidWeightRangeError("weight range bounds must not be NaN")
        if math.isinf(low):
            raise InvalidWeightRangeError("lower ratio bound must be finite")
        if low < 0:
            raise InvalidWeightRangeError(
                f"ratio bounds must be non-negative, got low={low}"
            )
        if high < low:
            raise InvalidWeightRangeError(
                f"invalid ratio range: low={low} > high={high}"
            )
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    @property
    def is_degenerate(self) -> bool:
        """``True`` when ``low == high`` (the 1NN instantiation)."""
        return self.low == self.high

    @property
    def is_unbounded(self) -> bool:
        """``True`` when the range effectively spans ``[0, +inf)``."""
        return self.low == 0.0 and self.high >= RATIO_INFINITY

    @property
    def width(self) -> float:
        """Width ``high - low`` of the interval."""
        return self.high - self.low

    def contains(self, ratio: float) -> bool:
        """Return ``True`` when ``ratio`` lies inside ``[low, high]``."""
        return self.low <= ratio <= self.high

    def as_tuple(self) -> Tuple[float, float]:
        """Return the interval as a plain ``(low, high)`` tuple."""
        return (self.low, self.high)

    def dual_query_interval(self) -> Tuple[float, float]:
        """Return the dual-space query interval ``[-high, -low]``.

        In the dual space of Section IV, a primal ratio range ``[l, h]``
        becomes the x-coordinate range ``[-h, -l]``.
        """
        return (-self.high, -self.low)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.low:g}, {self.high:g}]"


class RatioVector:
    """The attribute weight-ratio range vector of an eclipse query.

    A :class:`RatioVector` bundles ``d - 1`` :class:`WeightRange` intervals,
    one per ratio ``r[j] = w[j]/w[d]``.  It provides the two enumerations of
    weight vectors the algorithms need:

    * :meth:`corner_weight_vectors` — all ``2^{d-1}`` combinations of lower
      and upper bounds (Theorem 2); used by the baseline algorithm and by the
      dominance predicate.
    * :meth:`selected_domination_vectors` — the ``d`` carefully chosen rows of
      the corner matrix used by the transformation algorithm (Theorem 6).
    """

    __slots__ = ("_ranges",)

    def __init__(self, ranges: Sequence[WeightRange]):
        ranges = list(ranges)
        if not ranges:
            raise InvalidWeightRangeError(
                "a RatioVector needs at least one weight range (d >= 2)"
            )
        self._ranges: Tuple[WeightRange, ...] = tuple(ranges)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_bounds(
        cls, lows: Sequence[float], highs: Sequence[float]
    ) -> "RatioVector":
        """Build a vector from parallel sequences of lower and upper bounds."""
        if len(lows) != len(highs):
            raise InvalidWeightRangeError(
                "lows and highs must have the same length"
            )
        return cls([WeightRange(lo, hi) for lo, hi in zip(lows, highs)])

    @classmethod
    def uniform(cls, low: float, high: float, dimensions: int) -> "RatioVector":
        """Build a vector with the same ``[low, high]`` on every ratio.

        This mirrors the experimental setting of the paper, which uses
        ``r[1] = r[2] = ... = r[d-1]`` throughout Section V.

        Parameters
        ----------
        low, high:
            Shared ratio bounds.
        dimensions:
            Dataset dimensionality ``d`` (not the number of ratios); must be
            at least 2.
        """
        if dimensions < 2:
            raise InvalidWeightRangeError(
                f"eclipse queries need d >= 2 dimensions, got d={dimensions}"
            )
        return cls([WeightRange(low, high)] * (dimensions - 1))

    @classmethod
    def exact(cls, ratios: Sequence[float]) -> "RatioVector":
        """Build a degenerate vector pinning every ratio (1NN semantics)."""
        return cls([WeightRange(r, r) for r in ratios])

    @classmethod
    def skyline(cls, dimensions: int) -> "RatioVector":
        """Build the ``[0, +inf)`` vector that instantiates skyline."""
        return cls.uniform(0.0, RATIO_INFINITY, dimensions)

    @classmethod
    def from_weight_vector(cls, weights: Sequence[float]) -> "RatioVector":
        """Build a degenerate vector from an explicit weight vector ``w``.

        The weights are normalised so that ``w[d] = 1`` and each ratio is
        pinned to ``w[j] / w[d]`` — the 1NN instantiation of eclipse.
        """
        w = np.asarray(list(weights), dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise InvalidWeightRangeError(
                "weight vector must be 1-D with at least two entries"
            )
        if not np.all(np.isfinite(w)):
            raise InvalidWeightRangeError("weight vector must be finite")
        if np.any(w < 0) or w[-1] <= 0:
            raise InvalidWeightRangeError(
                "weights must be non-negative with a strictly positive last weight"
            )
        ratios = w[:-1] / w[-1]
        return cls.exact(ratios.tolist())

    @classmethod
    def from_categories(
        cls, categories: Sequence[ImportanceCategory]
    ) -> "RatioVector":
        """Build a vector from categorical importance levels.

        Each category describes how important attribute ``j`` is relative to
        the last attribute; see :class:`ImportanceCategory`.
        """
        ranges = [WeightRange(*category_to_ratio_range(c)) for c in categories]
        return cls(ranges)

    @classmethod
    def from_angles(
        cls, angle_ranges: Sequence[Tuple[float, float]]
    ) -> "RatioVector":
        """Build a vector from domination-line angle ranges in degrees.

        The ``angle`` rows of Table IV give the angular aperture of the
        domination region; ``angle_range_to_ratio_range`` documents the
        conversion.
        """
        ranges = [
            WeightRange(*angle_range_to_ratio_range(lo, hi))
            for lo, hi in angle_ranges
        ]
        return cls(ranges)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def ranges(self) -> Tuple[WeightRange, ...]:
        """The per-ratio :class:`WeightRange` intervals."""
        return self._ranges

    @property
    def num_ratios(self) -> int:
        """Number of ratios, i.e. ``d - 1``."""
        return len(self._ranges)

    @property
    def dimensions(self) -> int:
        """Dataset dimensionality ``d`` this vector applies to."""
        return len(self._ranges) + 1

    @property
    def lows(self) -> np.ndarray:
        """Array of lower bounds ``(l_1, ..., l_{d-1})``."""
        return np.array([r.low for r in self._ranges], dtype=float)

    @property
    def highs(self) -> np.ndarray:
        """Array of upper bounds ``(h_1, ..., h_{d-1})``."""
        return np.array([r.high for r in self._ranges], dtype=float)

    @property
    def is_exact(self) -> bool:
        """``True`` when every range is degenerate (1NN instantiation)."""
        return all(r.is_degenerate for r in self._ranges)

    @property
    def is_skyline(self) -> bool:
        """``True`` when every range spans ``[0, +inf)`` (skyline)."""
        return all(r.is_unbounded for r in self._ranges)

    def contains(self, ratios: Sequence[float]) -> bool:
        """Return ``True`` when the given ratio vector lies inside all ranges."""
        if len(ratios) != self.num_ratios:
            return False
        return all(rng.contains(r) for rng, r in zip(self._ranges, ratios))

    def widen(self, factor: float) -> "RatioVector":
        """Return a new vector with each range widened multiplicatively.

        Each ``[l, h]`` becomes ``[l / factor, h * factor]``; useful for the
        "relax an exact weight vector into a range with a margin" usage the
        introduction describes.
        """
        if factor < 1:
            raise InvalidWeightRangeError("widening factor must be >= 1")
        return RatioVector(
            [WeightRange(r.low / factor, r.high * factor) for r in self._ranges]
        )

    # ------------------------------------------------------------------
    # Weight-vector enumerations
    # ------------------------------------------------------------------
    def corner_weight_vectors(self) -> np.ndarray:
        """Return the ``(2^{d-1}, d)`` matrix of corner weight vectors.

        Row ``k`` contains one combination of lower/upper ratio bounds plus a
        trailing ``1`` for ``w[d]`` — the "domination vectors" of Theorem 2.
        The enumeration order is binary counting over the ratios with the
        first ratio as the most significant bit (all-lows first, all-highs
        last), which is only relevant for reproducibility of tests.
        """
        k = self.num_ratios
        corners = np.empty((2**k, self.dimensions), dtype=float)
        lows, highs = self.lows, self.highs
        for mask in range(2**k):
            for j in range(k):
                take_high = (mask >> (k - 1 - j)) & 1
                corners[mask, j] = highs[j] if take_high else lows[j]
            corners[mask, k] = 1.0
        return corners

    def selected_domination_vectors(self) -> np.ndarray:
        """Return the ``(d, d)`` matrix of selected domination vectors.

        Theorem 6 shows that ``d`` rows of the corner matrix suffice to
        represent all ``2^{d-1}`` corners: the all-lows row plus, for each
        ratio ``j``, the row with ``h_j`` on position ``j`` and lower bounds
        elsewhere.  These rows define the intercept mapping of the
        transformation algorithm.
        """
        d = self.dimensions
        lows, highs = self.lows, self.highs
        vectors = np.empty((d, d), dtype=float)
        vectors[0, :-1] = lows
        vectors[0, -1] = 1.0
        for j in range(d - 1):
            vectors[j + 1, :-1] = lows
            vectors[j + 1, j] = highs[j]
            vectors[j + 1, -1] = 1.0
        return vectors

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ranges)

    def __iter__(self) -> Iterable[WeightRange]:
        return iter(self._ranges)

    def __getitem__(self, index: int) -> WeightRange:
        return self._ranges[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatioVector):
            return NotImplemented
        return self._ranges == other._ranges

    def __hash__(self) -> int:
        return hash(self._ranges)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(str(r) for r in self._ranges)
        return f"RatioVector({inner})"


# ----------------------------------------------------------------------
# Conversions between user-facing specifications and ratio ranges
# ----------------------------------------------------------------------
def category_to_ratio_range(category: ImportanceCategory) -> Tuple[float, float]:
    """Map a categorical importance level to its ``[l, h]`` ratio range."""
    if not isinstance(category, ImportanceCategory):
        raise InvalidWeightRangeError(
            f"expected an ImportanceCategory, got {category!r}"
        )
    return _CATEGORY_RANGES[category]


def weight_interval_to_ratio_range(
    weight_low: float, weight_high: float
) -> Tuple[float, float]:
    """Convert a two-dimensional weight interval to a ratio range.

    This backs the *eclipse-weight* system of the case study: the user gives
    ``w[1] ∈ [weight_low, weight_high]`` with ``w[2] = 1 - w[1]``; the
    corresponding ratio range is ``[w_low/(1-w_low), w_high/(1-w_high)]``.
    """
    if not (0.0 <= weight_low <= weight_high <= 1.0):
        raise InvalidWeightRangeError(
            "weight interval must satisfy 0 <= low <= high <= 1"
        )
    low = RATIO_INFINITY if weight_low >= 1.0 else weight_low / (1.0 - weight_low)
    high = RATIO_INFINITY if weight_high >= 1.0 else weight_high / (1.0 - weight_high)
    return (low, high)


def ratio_range_to_angle_range(low: float, high: float) -> Tuple[float, float]:
    """Convert a ratio range ``[l, h]`` to a domination-line angle range.

    A domination line with slope ``-r`` makes an angle of
    ``180° - atan(r)`` with the positive x-axis, so the ratio range
    ``[l, h]`` corresponds to the angle range
    ``[180 - atan(h), 180 - atan(l)]`` in degrees.  For example the ratio
    range ``[0.36, 2.75]`` of Table IV maps to roughly ``[110°, 160°]``.
    """
    rng = WeightRange(low, high)  # validates
    angle_low = 180.0 - math.degrees(math.atan(rng.high))
    angle_high = 180.0 - math.degrees(math.atan(rng.low))
    return (angle_low, angle_high)


def angle_range_to_ratio_range(
    angle_low: float, angle_high: float
) -> Tuple[float, float]:
    """Convert a domination-line angle range in degrees to a ratio range.

    Inverse of :func:`ratio_range_to_angle_range`: an angle ``θ`` (measured
    from the positive x-axis, between 90° and 180°) corresponds to the ratio
    ``tan(180° - θ)``.  Angles must satisfy
    ``90 < angle_low <= angle_high <= 180``.
    """
    if not (90.0 < angle_low <= angle_high <= 180.0):
        raise InvalidWeightRangeError(
            "angles must satisfy 90 < low <= high <= 180 degrees"
        )
    high_ratio = math.tan(math.radians(180.0 - angle_low))
    low_ratio = math.tan(math.radians(180.0 - angle_high))
    # Guard against tiny negative values from floating point noise at 180°.
    low_ratio = max(low_ratio, 0.0)
    return (low_ratio, high_ratio)


def make_ratio_vector(
    spec,
    dimensions: int,
) -> RatioVector:
    """Coerce a user-supplied specification into a :class:`RatioVector`.

    Accepted specifications (``d`` is ``dimensions``):

    * an existing :class:`RatioVector` (validated against ``d``);
    * a single ``(low, high)`` pair — applied uniformly to all ratios;
    * a sequence of ``d - 1`` ``(low, high)`` pairs;
    * a sequence of ``d - 1`` :class:`ImportanceCategory` values;
    * ``None`` — the skyline instantiation ``[0, +inf)``.
    """
    if spec is None:
        return RatioVector.skyline(dimensions)
    if isinstance(spec, RatioVector):
        if spec.dimensions != dimensions:
            raise InvalidWeightRangeError(
                f"ratio vector is for d={spec.dimensions}, dataset has d={dimensions}"
            )
        return spec
    if isinstance(spec, WeightRange):
        return RatioVector([spec] * (dimensions - 1))
    spec_list = list(spec)
    if not spec_list:
        raise InvalidWeightRangeError("empty ratio specification")
    if all(isinstance(item, ImportanceCategory) for item in spec_list):
        vector = RatioVector.from_categories(spec_list)
    elif all(isinstance(item, WeightRange) for item in spec_list):
        vector = RatioVector(spec_list)
    elif len(spec_list) == 2 and all(
        isinstance(item, (int, float)) for item in spec_list
    ):
        return RatioVector.uniform(float(spec_list[0]), float(spec_list[1]), dimensions)
    else:
        pairs: List[Tuple[float, float]] = []
        for item in spec_list:
            lo, hi = item
            pairs.append((float(lo), float(hi)))
        vector = RatioVector.from_bounds(
            [p[0] for p in pairs], [p[1] for p in pairs]
        )
    if vector.dimensions != dimensions:
        raise InvalidWeightRangeError(
            f"specification defines {vector.num_ratios} ratios but the dataset "
            f"has d={dimensions} (needs {dimensions - 1})"
        )
    return vector
