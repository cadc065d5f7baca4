import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posauction.models import (DISTRIBUTION_NAMES, AuctionSetting,
                               DegenerateSettingError, DistributionSpec,
                               GimSetting, normalize_setting, rank_mask,
                               sample_setting, setting_from_json_dict,
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
    # every subset of bidders, i included or not, in every iterable form
    for n in (1, 3, 4):
        s = sample_setting(DistributionSpec.from_name(name), n, n, rng=rng(n))
        for i in range(n):
            rivals = [j for j in range(n) if j != i]
            for ids in range(1 << n):
                above = [j for j in range(n) if ids >> j & 1]
                rank = 0
                for r, j in enumerate(rivals):
                    if j in above:
                        rank |= 1 << r
                want = s.externality[i][rank]
                for form in (above, tuple(above), set(above), iter(above)):
                    got = s.externality_factor(i, form)
                    assert type(got) is float and got == want


def test_rank_mask_of_an_array_equals_rank_mask_of_each_int():
    for n in range(1, 7):
        ids = np.arange(1 << n)
        for i in range(n):
            assert rank_mask(i, ids).tolist() == [rank_mask(i, int(x)) for x in ids]


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
    doc = _dumps(s)
    back = setting_from_json_dict(json.loads(doc))
    assert type(back) is type(s)
    assert np.array_equal(back.values, s.values)
    assert np.array_equal(back.qualities, s.qualities)
    if isinstance(s, AuctionSetting):
        assert np.array_equal(back.clicks, s.clicks)
    else:
        assert np.array_equal(back.externality, s.externality)
    assert _dumps(back) == doc


def _dumps(setting):
    return json.dumps(setting.to_json_dict(), indent=2, sort_keys=True)


def test_setting_from_json_dict_rejects_a_mismatched_n():
    # n must match the rows of a no-externality setting's matrices, as it
    # sizes the externality table of the others
    doc = sample_setting(DistributionSpec.from_name("v-uni"), 2, 2, rng=rng(3)).to_json_dict()
    assert setting_from_json_dict(doc).n == 2
    with pytest.raises(ValueError, match="setting field 'n' is 5 but 'values' has 2 rows"):
        setting_from_json_dict({**doc, "n": 5})
    with pytest.raises(ValueError, match="setting lacks the field 'n'"):
        setting_from_json_dict({key: v for key, v in doc.items() if key != "n"})


def test_distribution_spec_validation():
    with pytest.raises(ValueError):
        DistributionSpec.from_name("nope-uni")
    with pytest.raises(ValueError):
        DistributionSpec.from_name("bss-uni")
    with pytest.raises(ValueError):
        DistributionSpec(model_kind="nope")
    with pytest.raises(ValueError):
        DistributionSpec(model_kind="v", value_law="exp")
    assert DistributionSpec.from_name("bss") == DistributionSpec("bss", "uni")
    assert DistributionSpec.from_name("gim-ln") == DistributionSpec("gim", "ln")


# sha256 of the sorted-key JSON of sample_setting(spec, n, max(n - 1, 1),
# default_rng(seed)) for (n, seed) in (1, 0), (1, 1), (3, 0), (3, 1), (5, 0),
# (5, 1): any change to a law, a range or the order of draws shows here
SAMPLED_DIGESTS = {
    "eos-uni": (
        "906f2d0c865a04ff94db7695e56d6b51ee2333bfa98022fa99a9b6f6a8fdf3b5",
        "b00cd54ac7e7a4b5c27d0569ba161716207bc121dd74746ec5d861941bdc1f5d",
        "68f97017b5abef2732440cb3f1b0c0e6f764fd3fb42b09d7fcd410ad573d79f5",
        "2779821f50579b5fca5efeff12f802d46d242680be467b9f8eda995ec33d9507",
        "5f74a8b0cebaecb90b73b57bfa3035e0cac01cbf2dda232f769bac09459122d4",
        "24c18be972968ce5c4b5855c3d5de0128f55c57d896b2ba2d7a1272488530a6d",
    ),
    "eos-ln": (
        "c51d3fd3ab10e71fbcdab8f3b88691e4707cca8786957db1be8f9709f988ac83",
        "02c64755e76a976cde021f911a9dcb39b6d67f414b547a2d5f4625659ef57b16",
        "ce70ede3072fe83452f6c6ac13061ea08ac1ab78c02a1d6abb854383403793be",
        "acd51d0f1d19dc50fc0ac542e73b0e8e2219c74429224a3cf5b7d232dad0efde",
        "b064d7e3998d0ca20caf1676ef28c8f55c0cd52be98f43decd77e1c2bf75d7fc",
        "83f0b10a20568ae1cf6f9c561d3ca02e16b0930df5653ecb01e4a00a82dec360",
    ),
    "v-uni": (
        "c336a0fc936faf115e56556281d4ff3da3f2a1e3d888b6594215335fd0e359c4",
        "aa9dd9a39a2396bfd7c3e47eba91065fb4c6165b245b19011fd663f77073661f",
        "b85760fe21c0697214291650b6015cd4bf774dcae086c25705396a0efb4db82a",
        "b3787a1eb50fe248b9c12d62f6d51d1729f018a37c8c106cc63fb7ec3cfc6737",
        "7a15031810b89fd91ca369baf152dfef3b454108d0583f28622d26797229bf6f",
        "c53aca68e6b20f685f5609423efb09443638fcb8cefa3cf071eacdd899a60edc",
    ),
    "v-ln": (
        "80e85f03913e884399f4b8853880b3f15eff40b3593213bf4ac8b31c6167052a",
        "d52351bb4079b6b6200dd824af0a2091acd520d9567686548383f8180e363de3",
        "7759faee012df9ca257475a67ca79e22a1aed6fac293f6388458f563a43c2cf0",
        "b908a4b715d4ceecb5154608b6c9a8106569fcb3069d67b02e812702972f5bff",
        "924467bca71629e8ea15c9d84f1aebaec2e3fae55f8977e4543eff363a9a9d70",
        "10b795ae95bb96c54a4841fc7f6e2ea0ae5bde2c2b44c6884281f0aef52dc801",
    ),
    "bhn-uni": (
        "f0f45286ca527fb680eb16a9485880b1945e22cf99b4f5667e0f6d879e70d650",
        "2bb97c65bd9085700e4a096684c163a8af74a4c43c08df81baad0ad11caca043",
        "75fdbd888d6622c70273a88abd0ec807b1e69272cc49ead92bca9efc1363466f",
        "792c0a8787fdb97b0bd6e88707492afca148b80cae0492bae904d87250c76fcf",
        "babb314fd9571eb1aa69b095dcbcdcae70b5cb606e8c350856341dc83aa34740",
        "99ee12e665c6b129bc79f1441e2602080796ca94f51ab19021ba592fe2824b0c",
    ),
    "bhn-ln": (
        "e7115024228dcc0f05e8b2d32d9b2311a75fd6a25642fe385b9d60d30346393f",
        "e1701518a4669b790d71665371c63a2528052f08d1b9c209b647c2af50567537",
        "e256b7fd4230d789fc396c1927c8a8198e47699cdc93d5b07cd03c892459eee8",
        "6e54fd1cb6a6d1ee4d6c3d793d1c2098e446798a23d60174f95cbf1f9a742a9b",
        "cb4b6e6367e162a9b69ba9325cf8b6a13195e3ab001cdc0dcc970c41d7548736",
        "3d79e59e058692872c417b628db2fe9419bb71ded713188d1f1f5a3132d95509",
    ),
    "bss": (
        "db47ae57babb876df480dc5e63d2c4e130a27c62ed25a82d21e1615d308f5591",
        "20c1ea63d98dbed0ca02b20cde04375af98e3a0bab034b8e62dde4f366be258f",
        "e1ce0ac8269178adc6a6c6b92dd838e31cb79f08797386be1d3c888b3056126a",
        "1618d656a30530efa3cefa910af9d4906d2147550e294d49fd32163206aa4c94",
        "6dc722040459a395b715a4c4d271aa459c1cb246dd9731b577723a46a3b0f208",
        "692741f471ae4413e169226e45ff9de4db1643ecd04aedee31afe28a7ca001dd",
    ),
    "cascade-uni": (
        "ab18a1f4422d8152e30fc5b9fe9f06c3bbf387da607d43502133b6e61184f338",
        "69a1f857ac7a7629a30b520ba2f0b99f7aee27cecf86d880b08954b97eb81479",
        "51a2b09cecd5f4e425caee5d7b29b8cb13420047ff398296a77215d9301327d3",
        "5f457dfd9e0e0e8951b7235d9542c4e37db074ab63b895e701ee515817aebe85",
        "ca4d348d2d5e4ceaefeeec3c66ce3bcc5872569339b9508a88a4d3153a91f26c",
        "2bcb13e4a4f91b6b3c51682febe193ca696ca4f27a8186e60a0a6d144590faa4",
    ),
    "cascade-ln": (
        "0020a2d400692c9ba98680a3cb472000a514862507fddb1d2e21fbf47748cbfa",
        "8816f783d61813ad949bf8eaa268f790310cf307c5a767706b4c454e9e892279",
        "10cea5fdbfcf5e3704d1eea96ac122cb234df8029cd5f2a3fc3faf599a2882e1",
        "c90e43b6429347509bce0d7332b7e2f1b6fefc60c7db6a14c8a8aff08aaac29c",
        "0495f6b606d4eedbdd3b65d3c37774d1e0dd3c41820e8c46a4391a1026f5150a",
        "8b3be91fb76b693d1ed830210e8eaaf62f3c95d079ee6aa3da48b59513781b03",
    ),
    "hybrid-uni": (
        "168ee81ecb0ea0d4c3125b0c912397f857a620f005396c01a07b3aaa79def410",
        "7515c5750e33b89dbd1d487e2fc26d363f40f8275a960c2e04ef2a23b3ef5d26",
        "3853ff211da55c0061ac89fe0e80595fa5daf17cb2ba56a77ecaffb108acff46",
        "849aced4a5abe78829afe7f6e7d3a81e8820096d737b7394a33cfe5181da9f57",
        "688887363d3928aadd83f14e8090fca1ad22f6406725e4f4160400cde8b5b51f",
        "eb8971435a4f252a9e1c15850fc17223dddcd5ba6bba97bac09876caedd15830",
    ),
    "hybrid-ln": (
        "f6dd84365689ff75e58098ab00bc05bd5842f06ce942581bd6e73567dc52e82a",
        "dd159d6bf60724403e189e5091eef26e332d14f2a66fa0aedc6d567151873bab",
        "63aa50e8a39dfbd3254f85941a4f65c49cdac0a755bb2f6022502cf94b64304d",
        "eb34834bbb4846f78fec4c013a0f7a210367de2896503c351cf9ae32b1ce64d3",
        "1e2ff67700c819d0a1331eb9414c087d13d5a4cb0388ae5c1da516a48692b02d",
        "f8e1db5c89071883470684aacaa921b8ceec25051da5e1f3cd04b5b00c6cbd0b",
    ),
    "gim-uni": (
        "771b9d3e0e0e83484295a2562e706cf7acc8a7ae949f7c3fb0f1cfbbea2d2796",
        "05fd7a9bdccb393061e0778bbd47c8822a473e3fba3570454ae3d9b5a6ce0d3b",
        "fa8c30dfb2f70fe75ae8d9cc2924c078b01346d39ed777f87cbd1f09756df1cb",
        "19c09f3da99ccbbc3cb3eef8c3c614b4d963a6a958593f36f5b73ffbadb314c9",
        "05b7c7fdc2565bba1222953827eaef2f41b0fec84da08b08e8db013d78c8e5d6",
        "a223002e4913eb23d4f480115b0054324e2c952af2d8a8f65e048e4feb7dba9b",
    ),
    "gim-ln": (
        "4abbf7f999199fbee6f2ae55d7419911dde973fda50d655d6a2ea6d39e7d5c57",
        "3e8eb48c7793558baf7f9f39d69a7b01183064d97f8325b348ef7842d2c4b191",
        "f49fce9d17c330a59164308b8b295928c0c667f86bdc20ee389e234d214697f0",
        "190fc8e6da97b3b199bdfe14f115dfc14e0f0bcaf6a4709b6c8feca10b91c074",
        "ba19e3fffe75cf84cd657f927dca3e8598dc7ca4cd6be56c96d27a2493ccf44f",
        "9872053dad5fc740bacb5587beb9d71ddfa3cd929047ff365ca6c227dbe9493d",
    ),
}


@pytest.mark.parametrize("name", DISTRIBUTION_NAMES)
def test_sampled_settings_are_pinned(name):
    spec = DistributionSpec.from_name(name)
    got = []
    for n in (1, 3, 5):
        for seed in (0, 1):
            doc = sample_setting(spec, n, max(n - 1, 1), rng=rng(seed)).to_json_dict()
            got.append(hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest())
    assert tuple(got) == SAMPLED_DIGESTS[name]
