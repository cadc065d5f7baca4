import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posauction.models import (DISTRIBUTION_NAMES, AuctionSetting,
                               DegenerateSettingError, DistributionSpec,
                               GimSetting, normalize_setting, sample_setting,
                               setting_from_json, setting_to_json,
                               validate_setting)


def rng(seed):
    return np.random.default_rng(seed)


@pytest.mark.parametrize("name", DISTRIBUTION_NAMES)
def test_sampled_settings_are_valid(name):
    spec = DistributionSpec.from_name(name)
    for seed in range(5):
        s = sample_setting(spec, 4, 3, rng=rng(seed))
        assert validate_setting(s) == []


def test_eos_one_agent_degenerate_case():
    s = sample_setting(DistributionSpec.from_name("eos-uni"), 1, 1, rng=rng(0))
    assert s.n == 1
    assert 0 < s.clicks[0, 0] <= 1
    assert np.all(s.values[0] == s.values[0, 0])


def test_v_model_click_rates_factor():
    s = sample_setting(DistributionSpec.from_name("v-uni"), 3, 3, rng=rng(1))
    c = s.clicks
    for i in range(3):
        for i2 in range(3):
            for j in range(3):
                for j2 in range(3):
                    assert c[i, j] * c[i2, j2] == pytest.approx(
                        c[i, j2] * c[i2, j], abs=1e-9)
    # position factors decrease
    assert s.position_factors[0] == 1.0
    assert np.all(np.diff(s.position_factors) <= 0)


def test_bhn_monotonicity_both_ways():
    for seed in range(10):
        s = sample_setting(DistributionSpec.from_name("bhn-uni"), 4, 4, rng=rng(seed))
        per_impression = s.clicks * s.values
        assert np.all(np.diff(s.values, axis=1) >= -1e-12)
        assert np.all(np.diff(per_impression, axis=1) <= 1e-12)


def test_cascade_externality_is_continuation_product():
    s = sample_setting(DistributionSpec.from_name("cascade-uni"), 2, 2, rng=rng(3))
    assert s.externality_factor(0, []) == 1.0
    assert s.externality_factor(1, []) == 1.0
    assert s.externality_factor(0, [1]) == pytest.approx(s.continuation[1])
    assert s.externality_factor(1, [0]) == pytest.approx(s.continuation[0])


@pytest.mark.parametrize("name", ["cascade-uni", "hybrid-uni", "gim-ln"])
def test_externality_factor_equals_rival_mask_lookup(name):
    # every subset of bidders, i included or not, in every input form
    for n in (1, 3, 4):
        s = sample_setting(DistributionSpec.from_name(name), n, n, rng=rng(n))
        for i in range(n):
            for ids in range(1 << n):
                above = [j for j in range(n) if ids >> j & 1]
                want = s.externality[i][s.rival_mask(i, above)]
                for form in (ids, np.int64(ids), above, tuple(above), set(above)):
                    got = s.externality_factor(i, form)
                    assert type(got) is float and got == want


@pytest.mark.parametrize("name", ["cascade-uni", "hybrid-uni", "gim-ln"])
def test_externality_monotone_under_inclusion(name):
    s = sample_setting(DistributionSpec.from_name(name), 4, 4, rng=rng(5))
    for i in range(s.n):
        f = s.externality[i]
        assert f[0] == 1.0
        for mask in range(len(f)):
            for b in range(s.n - 1):
                if not mask >> b & 1:
                    assert f[mask | 1 << b] <= f[mask] + 1e-12


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_sampling_is_deterministic(seed):
    spec = DistributionSpec.from_name("v-ln")
    a = sample_setting(spec, 3, 2, rng=rng(seed))
    b = sample_setting(spec, 3, 2, rng=rng(seed))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.clicks, b.clicks)
    assert np.array_equal(a.qualities, b.qualities)


def test_normalize_scales_to_top_bid():
    s = AuctionSetting("eos", 2, np.array([[2.0, 2.0], [4.0, 4.0]]),
                       np.array([[0.5, 0.25], [0.5, 0.25]]), np.array([0.5, 0.5]))
    out = normalize_setting(s, 8)
    assert out.values.max() == 8.0
    assert np.array_equal(out.values, np.array([[4.0, 4.0], [8.0, 8.0]]))
    again = normalize_setting(out, 8)
    assert np.array_equal(again.values, out.values)


def test_normalize_preserves_ratios_and_hits_grid_exactly():
    s = sample_setting(DistributionSpec.from_name("v-uni"), 4, 4, rng=rng(9))
    out = normalize_setting(s, 30)
    assert out.values.max() == 30.0
    ratio = s.values[0, 0] / s.values[1, 0]
    assert out.values[0, 0] / out.values[1, 0] == pytest.approx(ratio, rel=1e-12)


def test_normalize_rejects_all_zero_values():
    s = AuctionSetting("eos", 2, np.zeros((2, 2)),
                       np.array([[0.5, 0.25], [0.5, 0.25]]), np.array([0.5, 0.5]))
    with pytest.raises(DegenerateSettingError):
        normalize_setting(s, 8)


def test_validate_flags_constructed_violations():
    good = sample_setting(DistributionSpec.from_name("v-uni"), 3, 3, rng=rng(2))
    assert validate_setting(good) == []

    bad_bhn = AuctionSetting(
        "bhn", 2,
        values=np.array([[1.0, 5.0], [1.0, 1.0]]),
        clicks=np.array([[0.9, 0.5], [0.9, 0.5]]),
        qualities=np.array([0.9, 0.9]))
    msgs = validate_setting(bad_bhn)
    assert any("per-impression" in m for m in msgs)

    ext = np.array([[1.0, 1.4], [1.0, 0.5]])
    bad_gim = GimSetting("gim", 2, np.array([1.0, 2.0]),
                         np.array([0.5, 0.5]), ext)
    msgs = validate_setting(bad_gim)
    assert any("[0, 1]" in m or "increases" in m for m in msgs)


@pytest.mark.parametrize("name", ["eos-uni", "bhn-ln", "bss", "hybrid-uni", "gim-uni"])
def test_json_round_trip_is_bitwise(name):
    s = sample_setting(DistributionSpec.from_name(name), 3, 2, rng=rng(11))
    s = normalize_setting(s, 8)
    doc = setting_to_json(s)
    back = setting_from_json(doc)
    assert type(back) is type(s)
    assert np.array_equal(back.values, s.values)
    assert np.array_equal(back.qualities, s.qualities)
    if isinstance(s, AuctionSetting):
        assert np.array_equal(back.clicks, s.clicks)
    else:
        assert np.array_equal(back.externality, s.externality)
    assert setting_to_json(back) == doc


def test_distribution_spec_validation():
    with pytest.raises(ValueError):
        DistributionSpec.from_name("nope-uni")
    with pytest.raises(ValueError):
        DistributionSpec(model_kind="v", ln_value=(0.0, 0.0))
    with pytest.raises(ValueError):
        DistributionSpec(model_kind="v", continuation_range=(0.0, 1.0))
