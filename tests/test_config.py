import pytest

from aoi_dpp.channel import GilbertElliotChannel, IIDChannel
from aoi_dpp.config import (
    ConfigError,
    PRESETS,
    load_config,
    parse_config_text,
    preset,
    render_config,
    with_overrides,
)
from aoi_dpp.sim import PolicyKind

BASIC = """\
# small iid scenario
T = 4
K = 2
q = 1.0
A_max = 5
V = 0, 1.5
channel.type = iid
channel.p1 = 0.9
channel.p2 = 0.8   # inline comment
horizon_slots = 200
seed = 3
"""


def test_parse_basic():
    cfg = parse_config_text(BASIC)
    assert cfg.T == 4 and cfg.K == 2 and cfg.q == 1.0
    assert cfg.V == (0.0, 1.5)
    assert cfg.channel == IIDChannel(p1=0.9, p2=0.8)
    assert cfg.seed == 3
    assert cfg.policy == PolicyKind.DRIFT_PLUS_PENALTY  # default
    assert cfg.discount == 1.0
    assert cfg.cells() == [(0.0, 3), (1.5, 3)]


def test_roundtrip_identity():
    cfg = parse_config_text(BASIC)
    assert parse_config_text(render_config(cfg)) == cfg
    ge = preset("fig6")
    assert parse_config_text(render_config(ge)) == ge


def test_unknown_key_named():
    with pytest.raises(ConfigError) as exc:
        parse_config_text(BASIC + "bogus_key = 1\n")
    assert exc.value.key == "bogus_key"
    assert "bogus_key" in str(exc.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config_text(BASIC + "T = 9\n")
    assert exc.value.key == "T"


def test_missing_required_key():
    text = BASIC.replace("horizon_slots = 200\n", "")
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert exc.value.key == "horizon_slots"


def test_channel_key_mismatch():
    with pytest.raises(ConfigError) as exc:
        parse_config_text(BASIC + "channel.p11_1 = 0.9\n")
    assert exc.value.key == "channel.p11_1"
    text = BASIC.replace("channel.p1 = 0.9\n", "")
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert exc.value.key == "channel.p1"


def test_bad_channel_type():
    with pytest.raises(ConfigError) as exc:
        parse_config_text(BASIC.replace("iid", "rayleigh"))
    assert exc.value.key == "channel.type"


def test_model_invariants_revalidated():
    with pytest.raises(ConfigError):
        parse_config_text(BASIC.replace("K = 2", "K = 9"))  # K > T
    with pytest.raises(ConfigError):
        parse_config_text(BASIC.replace("horizon_slots = 200", "horizon_slots = 2"))
    with pytest.raises(ConfigError):
        parse_config_text(BASIC.replace("channel.p1 = 0.9", "channel.p1 = 1.7"))
    with pytest.raises(ConfigError):
        parse_config_text(BASIC + "warmup_slots = 199\n")


def test_malformed_lines():
    with pytest.raises(ConfigError):
        parse_config_text("T\n")
    with pytest.raises(ConfigError):
        parse_config_text("T = \n")
    with pytest.raises(ConfigError) as exc:
        parse_config_text(BASIC.replace("V = 0, 1.5", "V = zero"))
    assert exc.value.key == "V"


def test_presets_encode_reference_scenario():
    expected_v = {
        "fig4a": (0.0, 5.0, 10.0, 100.0, 150.0),
        "fig4bc": (0.0, 5.0, 10.0, 100.0, 150.0),
        "fig5": (5.0, 150.0),
        "fig6": (0.0, 5.0, 10.0, 100.0),
        "fig7": (0.0, 5.0, 10.0, 100.0),
    }
    assert set(PRESETS) == set(expected_v)
    for name, cfg in PRESETS.items():
        assert (cfg.T, cfg.K, cfg.q, cfg.A_max) == (20, 15, 12.0, 20)
        assert cfg.horizon_slots == 500_000
        assert cfg.channel == GilbertElliotChannel(0.9, 0.6, 0.9, 0.6)
        assert cfg.V == expected_v[name]
    assert PRESETS["fig4a"].replications == 5


def test_unknown_preset():
    with pytest.raises(ConfigError):
        preset("fig99")


def test_overrides():
    cfg = preset("fig6")
    out = with_overrides(cfg, seed=9, horizon=2_000, out_dir="x", v_list=(5.0,))
    assert out.seed == 9 and out.horizon_slots == 2_000
    assert out.V == (5.0,) and out.out_dir == "x"
    with pytest.raises(ConfigError):
        with_overrides(cfg, horizon=7)  # below T


def test_negative_seed_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config_text(BASIC.replace("seed = 3", "seed = -1"))
    assert exc.value.key == "seed"
    with pytest.raises(ConfigError) as exc:
        with_overrides(preset("fig6"), seed=-1)
    assert exc.value.key == "seed"


@pytest.mark.parametrize("bucket", ["nan", "inf"])
def test_non_finite_z_cache_bucket_rejected(bucket):
    with pytest.raises(ConfigError) as exc:
        parse_config_text(BASIC + f"z_cache_bucket = {bucket}\n")
    assert exc.value.key == "z_cache_bucket"


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError) as exc:
        load_config(tmp_path / "missing.cfg")
    assert "missing.cfg" in str(exc.value)


def test_load_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(BASIC, encoding="utf-8")
    assert load_config(path) == parse_config_text(BASIC)
