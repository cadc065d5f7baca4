"""Auction settings and samplers for the preference-model families.

Two setting shapes exist: :class:`AuctionSetting` for the no-externality
models (eos, v, bhn, bss), where each bidder has a per-position value and
click-rate matrix, and :class:`GimSetting` for the externality models
(cascade, hybrid, gim), where a bidder's click probability is scaled by a
monotone set function of the bidders ranked above.

A sampling distribution (:class:`DistributionSpec`) is a model and the law
of its values and qualities, uniform or log-normal.

Positions are 1-based in the math and 0-based in the arrays.  Matrices carry
one column per position 1..n; click rates are zero for positions past the
slot count m.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable

import numpy as np

NO_EXTERNALITY_MODELS = ("eos", "v", "bhn", "bss")
EXTERNALITY_MODELS = ("cascade", "hybrid", "gim")
ALL_MODELS = NO_EXTERNALITY_MODELS + EXTERNALITY_MODELS

VALUE_LAWS = ("uni", "ln")

#: The thirteen sampling distributions: uniform and log-normal variants of
#: each model, except bss which ships with a single distribution.
DISTRIBUTION_NAMES = (
    "eos-uni", "eos-ln",
    "v-uni", "v-ln",
    "bhn-uni", "bhn-ln",
    "bss",
    "cascade-uni", "cascade-ln",
    "hybrid-uni", "hybrid-ln",
    "gim-uni", "gim-ln",
)

REJECTION_BUDGET = 1000

# The laws' parameters; values and qualities share theirs.  The log-normal
# (location, scale) is a fixed guess, because the fitted parameters of the
# original bid-log study are not public; normalization removes the overall
# scale anyway.
LN_LAW = (0.0, 1.0)
UNIFORM_RANGE = (0.0, 1.0)
CONTINUATION_RANGE = (0.0, 0.95)
PAIRWISE_RANGE = (0.2, 1.0)
DECAY_RANGE = (0.3, 0.9)


class SamplingError(RuntimeError):
    """Raised when rejection sampling exhausts its retry budget."""


class DegenerateSettingError(ValueError):
    """Raised when an operation requires a strictly positive value somewhere."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DistributionSpec:
    """One sampling distribution: a model and the law (uniform or log-normal)
    of its values and qualities; the structural parameters (position curves,
    continuation probabilities, pairwise externality factors, peak-decay
    factors) stay uniform under both laws."""

    model_kind: str
    value_law: str = "uni"

    def __post_init__(self):
        if self.model_kind not in ALL_MODELS:
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        if self.value_law not in VALUE_LAWS:
            raise ValueError(f"unknown value law {self.value_law!r}")

    @classmethod
    def from_name(cls, name: str) -> "DistributionSpec":
        if name not in DISTRIBUTION_NAMES:
            raise ValueError(f"unknown distribution {name!r}")
        kind, _, law = name.partition("-")
        return cls(model_kind=kind, value_law=law or "uni")


@dataclass(frozen=True)
class AuctionSetting:
    """No-externality setting: per-position values and click rates.

    ``values[i][j]`` is bidder i's value per click in position j+1 and
    ``clicks[i][j]`` the probability of a click there; ``qualities[i]``
    equals the top-position click rate ``clicks[i][0]``.  Positions past
    the slot count ``m`` have zero click rate.  ``position_factors`` keeps
    the shared position curve for the separable models.
    """

    model_kind: str
    m: int
    values: np.ndarray
    clicks: np.ndarray
    qualities: np.ndarray
    position_factors: np.ndarray | None = None
    normalized_to: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))
        object.__setattr__(self, "clicks", _frozen(self.clicks))
        object.__setattr__(self, "qualities", _frozen(self.qualities))
        if self.position_factors is not None:
            object.__setattr__(self, "position_factors", _frozen(self.position_factors))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def to_json_dict(self) -> dict:
        doc = {
            "model_kind": self.model_kind,
            "n": self.n,
            "m": self.m,
            "values": self.values.tolist(),
            "clicks": self.clicks.tolist(),
            "qualities": self.qualities.tolist(),
        }
        if self.position_factors is not None:
            doc["position_factors"] = self.position_factors.tolist()
        if self.normalized_to is not None:
            doc["normalized_to"] = self.normalized_to
        return doc


@dataclass(frozen=True)
class GimSetting:
    """Externality setting: scalar values plus set-function click scaling.

    Bidder i shown below the bidders in set S receives a click with
    probability ``qualities[i] * f_i(S)``.  ``externality[i]`` stores f_i
    densely over the 2^(n-1) subsets of the rivals of i; bit b of the index
    refers to the b-th rival of i in ascending bidder order.
    """

    model_kind: str
    m: int
    values: np.ndarray
    qualities: np.ndarray
    externality: np.ndarray
    continuation: np.ndarray | None = None
    normalized_to: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))
        object.__setattr__(self, "qualities", _frozen(self.qualities))
        object.__setattr__(self, "externality", _frozen(self.externality))
        if self.continuation is not None:
            object.__setattr__(self, "continuation", _frozen(self.continuation))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def rivals(self, i: int) -> list[int]:
        return [j for j in range(self.n) if j != i]

    def rival_mask(self, i: int, above: Iterable[int]) -> int:
        """The rival-rank bitmask of the bidder ids ``above``, which indexes
        ``externality[i]``."""
        ids = set(above)
        return sum(1 << rank for rank, j in enumerate(self.rivals(i)) if j in ids)

    @cached_property
    def _factor_table(self) -> list[list[float]]:
        """``externality_factor`` by bidder and bidder-id bitmask."""
        ids = np.arange(1 << self.n)
        table = []
        for i in range(self.n):
            rank_mask = np.zeros_like(ids)
            for rank, j in enumerate(self.rivals(i)):
                rank_mask |= (ids >> j & 1) << rank
            table.append(self.externality[i][rank_mask].tolist())
        return table

    def externality_factor(self, i: int, above: Iterable[int]) -> float:
        """f_i of the bidder ids in ``above``; i itself and ids outside
        0..n-1 are ignored, as in ``rival_mask``."""
        mask = 0
        for j in above:
            mask |= 1 << j
        return self._factor_table[i][mask & ((1 << self.n) - 1)]

    def to_json_dict(self) -> dict:
        # externality is emitted as bidder-id bitmask -> value maps, which
        # stay readable when n changes; rank masks remain an internal detail.
        ext = [{str(ids): f for ids, f in enumerate(self._factor_table[i])
                if not ids >> i & 1} for i in range(self.n)]
        doc = {
            "model_kind": self.model_kind,
            "n": self.n,
            "m": self.m,
            "values": self.values.tolist(),
            "qualities": self.qualities.tolist(),
            "externality": ext,
        }
        if self.continuation is not None:
            doc["continuation"] = self.continuation.tolist()
        if self.normalized_to is not None:
            doc["normalized_to"] = self.normalized_to
        return doc


Setting = AuctionSetting | GimSetting


def _rank_externality(entries, n: int) -> np.ndarray:
    ext = np.ones((n, 1 << (n - 1)))
    for i, entry in enumerate(entries):
        rivals = [j for j in range(n) if j != i]
        for key, value in entry.items():  # bidder-id mask -> rival-rank mask
            ids = int(key)
            ext[i][sum(1 << rank for rank, j in enumerate(rivals) if ids >> j & 1)] = value
    return ext


def _field(doc: dict, name: str, convert=None, ndim: int = 1, required: bool = True):
    """``doc[name]`` through ``convert``, else as an ``ndim``-D float array;
    None if it is absent and not required."""
    if name not in doc:
        if required:
            raise ValueError(f"setting lacks the field {name!r}")
        return None
    try:
        if convert is not None:
            return convert(doc[name])
        if (value := np.array(doc[name], dtype=float)).ndim != ndim:
            raise ValueError(f"{value.ndim}-D where {ndim}-D numbers belong")
        return value
    except (TypeError, ValueError, AttributeError, IndexError) as exc:
        raise ValueError(f"setting field {name!r} is ill-typed: {exc}") from None


def setting_from_json_dict(doc: dict) -> Setting:
    """The setting that ``to_json_dict`` wrote; a missing or ill-typed field
    or an unknown model kind raises a ValueError naming it."""
    kind = _field(doc, "model_kind", str)
    if kind not in ALL_MODELS:
        raise ValueError(f"unknown model kind {kind!r}")
    no_ext = kind in NO_EXTERNALITY_MODELS
    common = dict(model_kind=kind, m=_field(doc, "m", int),
                  values=_field(doc, "values", ndim=2 if no_ext else 1),
                  qualities=_field(doc, "qualities"),
                  normalized_to=_field(doc, "normalized_to", float, required=False))
    if no_ext:
        setting = AuctionSetting(clicks=_field(doc, "clicks", ndim=2), **common,
                                 position_factors=_field(doc, "position_factors", required=False))
        if (n := _field(doc, "n", int)) != setting.n:
            raise ValueError(f"setting field 'n' is {n} but 'values' has {setting.n} rows")
        return setting
    n = _field(doc, "n", int)
    ext = _field(doc, "externality", lambda entries: _rank_externality(entries, n))
    return GimSetting(externality=ext, **common,
                      continuation=_field(doc, "continuation", required=False))


# --------------------------------------------------------------------------
# sampling

def _uniform_open(rng, lo: float, hi: float, size=None) -> np.ndarray:
    """Uniform on the half-open interval (lo, hi]."""
    return hi - (hi - lo) * rng.random(size)


def _draw_values(rng, spec: DistributionSpec, size) -> np.ndarray:
    if spec.value_law == "ln":
        return rng.lognormal(*LN_LAW, size)
    return _uniform_open(rng, *UNIFORM_RANGE, size)


def _draw_qualities(rng, spec: DistributionSpec, size) -> np.ndarray:
    """Qualities live in (0, 1]; log-normal draws are rescaled by their max."""
    if spec.value_law == "ln":
        q = rng.lognormal(*LN_LAW, size)
        return q / q.max()
    return _uniform_open(rng, *UNIFORM_RANGE, size)


def _position_curve(rng, n: int, m: int) -> np.ndarray:
    """Decreasing position factors with the top factor pinned to 1 and zeros
    past the slot count."""
    live = min(n, m)
    alpha = np.zeros(n)
    alpha[0] = 1.0
    if live > 1:
        alpha[1:live] = np.sort(_uniform_open(rng, 0.0, 1.0, live - 1))[::-1]
    return alpha


def _sample_eos(rng, spec, n, m):
    # one shared quality keeps the weighted and unweighted rankings identical
    alpha = _position_curve(rng, n, m)
    q = float(_draw_qualities(rng, spec, 1)[0])
    clicks = np.tile(alpha * q, (n, 1))
    v = _draw_values(rng, spec, n)
    values = np.tile(v[:, None], (1, n))
    return AuctionSetting("eos", m, values, clicks, np.full(n, q * alpha[0]),
                          position_factors=alpha)


def _sample_v(rng, spec, n, m):
    alpha = _position_curve(rng, n, m)
    q = _draw_qualities(rng, spec, n)
    clicks = np.outer(q, alpha)
    v = _draw_values(rng, spec, n)
    values = np.tile(v[:, None], (1, n))
    return AuctionSetting("v", m, values, clicks, q, position_factors=alpha)


def _sample_bhn(rng, spec, n, m):
    # Decreasing per-impression values w over a decreasing separable click
    # curve guarantee both monotonicity constraints: v = w / c is clamped to
    # be weakly increasing, which cannot break w = c * v being decreasing.
    alpha = _position_curve(rng, n, m)
    q = _draw_qualities(rng, spec, n)
    clicks = np.outer(q, alpha)
    live = min(n, m)
    values = np.zeros((n, n))
    for i in range(n):
        w = np.sort(_draw_values(rng, spec, live))[::-1]
        v = w / clicks[i, :live]
        v = np.maximum.accumulate(v)
        values[i, :live] = v
        values[i, live:] = v[-1]
    return AuctionSetting("bhn", m, values, clicks, q, position_factors=alpha)


def _sample_bss(rng, spec, n, m):
    gamma = _position_curve(rng, n, m)
    scale = float(_uniform_open(rng, 0.0, 1.0))
    gamma = gamma * scale
    clicks = np.tile(gamma, (n, 1))
    live = min(n, m)
    values = np.zeros((n, n))
    lo, hi = DECAY_RANGE
    for i in range(n):
        peak = int(rng.integers(0, live))
        peak_value = float(_draw_values(rng, spec, 1)[0])
        values[i, peak] = peak_value
        for j in range(peak - 1, -1, -1):
            values[i, j] = values[i, j + 1] * _uniform_open(rng, lo, hi)
        for j in range(peak + 1, n):
            values[i, j] = values[i, j - 1] * _uniform_open(rng, lo, hi)
    return AuctionSetting("bss", m, values, clicks, np.full(n, gamma[0]),
                          position_factors=gamma)


def _dense_externality(n: int, factor) -> np.ndarray:
    """Fill the (n, 2^(n-1)) table from ``factor(i, rival_ids) -> float``."""
    ext = np.ones((n, 1 << max(n - 1, 0)))
    for i in range(n):
        rivals = [j for j in range(n) if j != i]
        for mask in range(1 << (n - 1)):
            ids = [rivals[r] for r in range(n - 1) if mask >> r & 1]
            ext[i][mask] = factor(i, ids)
    return ext


def _sample_cascade(rng, spec, n, m):
    v = _draw_values(rng, spec, n)
    q = _draw_qualities(rng, spec, n)
    lo, hi = CONTINUATION_RANGE
    cont = lo + (hi - lo) * rng.random(n)
    ext = _dense_externality(n, lambda i, ids: float(np.prod([cont[j] for j in ids])))
    return GimSetting("cascade", m, v, q, ext, continuation=cont)


def _sample_hybrid(rng, spec, n, m):
    v = _draw_values(rng, spec, n)
    q = _draw_qualities(rng, spec, n)
    lo, hi = CONTINUATION_RANGE
    cont = lo + (hi - lo) * rng.random(n)
    delta = np.ones(n)
    if n > 1:
        delta[1:] = np.sort(_uniform_open(rng, 0.0, 1.0, n - 1))[::-1]
    ext = _dense_externality(
        n, lambda i, ids: float(delta[len(ids)] * np.prod([cont[j] for j in ids])))
    return GimSetting("hybrid", m, v, q, ext, continuation=cont)


def _sample_gim(rng, spec, n, m):
    v = _draw_values(rng, spec, n)
    q = _draw_qualities(rng, spec, n)
    lo, hi = PAIRWISE_RANGE
    pairwise = lo + (hi - lo) * rng.random((n, n))
    ext = _dense_externality(
        n, lambda i, ids: float(np.prod([pairwise[j, i] for j in ids])))
    return GimSetting("gim", m, v, q, ext)


_SAMPLERS = {
    "eos": _sample_eos,
    "v": _sample_v,
    "bhn": _sample_bhn,
    "bss": _sample_bss,
    "cascade": _sample_cascade,
    "hybrid": _sample_hybrid,
    "gim": _sample_gim,
}


def sample_setting(spec: DistributionSpec, n: int, m: int,
                   rng: np.random.Generator) -> Setting:
    """Draw one preference-profile instance.

    Deterministic given the generator state: equal (spec, n, m) inputs and
    generator states produce bitwise-equal settings.  Retries up to the
    rejection budget if a draw violates a model invariant.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    sampler = _SAMPLERS[spec.model_kind]
    for _ in range(REJECTION_BUDGET):
        setting = sampler(rng, spec, n, m)
        if not validate_setting(setting) and setting.values.max() > 0:
            return setting
    raise SamplingError(
        f"no valid {spec.model_kind} instance within {REJECTION_BUDGET} draws")


# --------------------------------------------------------------------------
# normalization and validation

def normalize_setting(setting: Setting, k_max: float) -> Setting:
    """Scale all values by one constant so the largest equals ``k_max``.

    The maximal entries are pinned to ``k_max`` exactly so downstream grid
    logic can rely on equality; click rates and qualities are untouched.
    """
    if k_max <= 0:
        raise ValueError("k_max must be positive")
    vmax = float(setting.values.max())
    if vmax <= 0:
        raise DegenerateSettingError("setting has no strictly positive value")
    scaled = setting.values * (k_max / vmax)
    scaled[setting.values == vmax] = k_max
    return replace(setting, values=scaled, normalized_to=float(k_max))


def _violations_no_ext(s: AuctionSetting) -> list[str]:
    out = []
    n = s.n
    if s.values.shape != (n, n) or s.clicks.shape != (n, n):
        return [f"matrix shapes must be ({n}, {n})"]
    if np.any(s.values < 0):
        out.append("values must be nonnegative")
    if np.any(s.clicks < 0) or np.any(s.clicks > 1):
        out.append("click rates must lie in [0, 1]")
    if np.any(s.qualities <= 0) or np.any(s.qualities > 1):
        out.append("qualities must lie in (0, 1]")
    for i in range(n):
        if abs(s.clicks[i, 0] - s.qualities[i]) > 1e-12:
            out.append(f"quality of bidder {i} must equal its top-position click rate")
        for j in range(n - 1):
            if s.clicks[i, j + 1] > s.clicks[i, j] + 1e-12:
                out.append(f"click rates of bidder {i} increase from position {j + 1} to {j + 2}")
    if s.m < n and np.any(s.clicks[:, s.m:] != 0):
        out.append(f"click rates past position m={s.m} must be zero")

    if s.model_kind == "eos":
        if not np.allclose(s.clicks, s.clicks[0], atol=1e-12):
            out.append("eos: click rates must not depend on the bidder")
        if np.any(np.abs(s.values - s.values[:, :1]) > 1e-12):
            out.append("eos: values must not depend on the position")
    elif s.model_kind == "v":
        if np.any(np.abs(s.values - s.values[:, :1]) > 1e-12):
            out.append("v: values must not depend on the position")
        _check_separable(s, out, "v")
    elif s.model_kind == "bhn":
        _check_separable(s, out, "bhn")
        for i in range(n):
            for j in range(n - 1):
                if s.values[i, j + 1] < s.values[i, j] - 1e-9:
                    out.append(f"bhn: values of bidder {i} decrease from position {j + 1} to {j + 2}")
                w0 = s.clicks[i, j] * s.values[i, j]
                w1 = s.clicks[i, j + 1] * s.values[i, j + 1]
                if w1 > w0 + 1e-9:
                    out.append(f"bhn: per-impression monotonicity fails for bidder {i} "
                               f"between positions {j + 1} and {j + 2}")
    elif s.model_kind == "bss":
        if not np.allclose(s.clicks, s.clicks[0], atol=1e-12):
            out.append("bss: click rates must not depend on the bidder")
        for i in range(n):
            v = s.values[i]
            peak = int(np.argmax(v))
            left = v[:peak + 1]
            right = v[peak:]
            if not (np.all(np.diff(left) > 0) and np.all(np.diff(right) < 0)):
                out.append(f"bss: values of bidder {i} are not single-peaked "
                           "with a strict decay away from the peak")
    return out


def _check_separable(s: AuctionSetting, out: list[str], tag: str) -> None:
    # c[i][j] * c[i'][j'] == c[i][j'] * c[i'][j] characterizes a product form.
    c = s.clicks
    for i in range(s.n):
        for i2 in range(i + 1, s.n):
            diff = np.abs(c[i][:, None] * c[i2][None, :] - c[i][None, :] * c[i2][:, None])
            if diff.max() > 1e-9:
                out.append(f"{tag}: click rates of bidders {i} and {i2} do not factor "
                           "into position and bidder terms")
                return


def _violations_gim(s: GimSetting) -> list[str]:
    out = []
    n = s.n
    if s.externality.shape != (n, 1 << (n - 1)):
        return [f"externality table must have shape ({n}, {1 << (n - 1)})"]
    if np.any(s.values < 0):
        out.append("values must be nonnegative")
    if np.any(s.qualities <= 0) or np.any(s.qualities > 1):
        out.append("qualities must lie in (0, 1]")
    for i in range(n):
        f = s.externality[i]
        if abs(f[0] - 1.0) > 1e-12:
            out.append(f"externality of bidder {i} is not normalized: f(empty) != 1")
        if np.any(f < 0) or np.any(f > 1 + 1e-12):
            out.append(f"externality of bidder {i} leaves [0, 1]")
        for mask in range(1, 1 << (n - 1)):
            low = mask & (mask - 1)  # mask with its lowest set bit removed
            if f[mask] > f[low] + 1e-12:
                out.append(f"externality of bidder {i} increases when rival set grows "
                           f"(rank mask {low} -> {mask})")
                break
    if s.model_kind in ("cascade", "hybrid"):
        if s.continuation is None:
            out.append(f"{s.model_kind}: continuation probabilities are required")
        elif np.any(s.continuation < 0) or np.any(s.continuation >= 1):
            out.append("continuation probabilities must lie in [0, 1)")
        else:
            out.extend(_check_externality_form(s))
    return out


def _check_externality_form(s: GimSetting) -> list[str]:
    n = s.n
    cont = s.continuation
    for i in range(n):
        rivals = s.rivals(i)
        for mask in range(1 << (n - 1)):
            prod = 1.0
            for r in range(n - 1):
                if mask >> r & 1:
                    prod *= cont[rivals[r]]
            if s.model_kind == "cascade":
                expect = prod
            else:
                size = bin(mask).count("1")
                # hybrid: f depends on |S| through one shared factor, so only
                # check that f / prod(cont) is a function of the set size
                ref_mask = (1 << size) - 1
                ref_prod = 1.0
                for r in range(size):
                    ref_prod *= cont[rivals[r]]
                expect = (s.externality[i][ref_mask] / ref_prod * prod
                          if ref_prod > 0 else s.externality[i][mask])
            if abs(s.externality[i][mask] - expect) > 1e-9:
                return [f"{s.model_kind}: externality of bidder {i} does not match "
                        "its continuation probabilities"]
    return []


def validate_setting(setting: Setting) -> list[str]:
    """Return a list of invariant violations; empty when the setting is valid."""
    if isinstance(setting, AuctionSetting):
        return _violations_no_ext(setting)
    return _violations_gim(setting)
