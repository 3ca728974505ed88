import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_dpp.channel import GilbertElliotChannel, IIDChannel
from aoi_dpp.config import (
    KNOWN_KEYS,
    ConfigError,
    ExperimentConfig,
    PRESETS,
    load_config,
    parse_config_text,
    parse_v_list,
    preset,
    render_config,
    v_dir,
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


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("T = 4", "T = 0", "T"),
        ("K = 2", "K = 9", "K"),
        ("q = 1.0", "q = 3.0", "q"),
        ("A_max = 5", "A_max = 0", "A_max"),
        ("V = 0, 1.5", "V = 0, -1", "V"),
        ("seed = 3", "seed = 3\ndiscount = 0", "discount"),
        ("seed = 3", "seed = 3\ndiscount = 0.9", "discount"),
        ("seed = 3", "seed = 3\nz_cache_bucket = 0.5", "z_cache_bucket"),
        ("channel.p1 = 0.9", "channel.p1 = 1.7", "channel.p1"),
    ],
    ids=["T", "K", "q", "A_max", "V", "discount", "discount-0.9", "z_cache_bucket-0.5",
         "channel.p1"],
)
def test_model_invariant_names_key(old, new, key):
    with pytest.raises(ConfigError) as exc:
        parse_config_text(BASIC.replace(old, new))
    assert exc.value.key == key
    assert str(exc.value).startswith(f"{key}: must ")


@pytest.mark.parametrize("v_text", ["2, 2.0", "1 0 1", "0.1 0.1000001", "0 -0"])
def test_duplicate_v_rejected(v_text):
    # values that print alike under {v:g} would share one cell directory, and
    # equal values (0 and -0, in V0 and V-0) would share one pooled row
    with pytest.raises(ConfigError) as exc:
        parse_config_text(BASIC.replace("V = 0, 1.5", f"V = {v_text}"))
    assert exc.value.key == "V"
    with pytest.raises(ConfigError) as exc:
        with_overrides(preset("fig6"), v_list=parse_v_list(v_text))
    assert exc.value.key == "V"


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


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError) as exc:
        load_config(tmp_path / "missing.cfg")
    assert "missing.cfg" in str(exc.value)


def test_load_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(BASIC, encoding="utf-8")
    assert load_config(path) == parse_config_text(BASIC)


@pytest.mark.parametrize("out_dir", ["runs#1", "a\nb", "a\rb", " runs", "runs ", ""])
def test_unparseable_out_dir_rejected(out_dir):
    # the echo would not parse back to the config that ran
    with pytest.raises(ConfigError) as exc:
        with_overrides(preset("fig6"), out_dir=out_dir)
    assert exc.value.key == "out_dir"


def test_empty_v_override_rejected():
    with pytest.raises(ConfigError) as exc:
        with_overrides(preset("fig6"), v_list=())
    assert exc.value.key == "V"


probability = st.floats(0.0, 1.0)
channels = st.one_of(
    st.builds(IIDChannel, probability, probability),
    # a chain with p11 = 1 and p01 = 0 has no stationary start and is rejected
    st.builds(GilbertElliotChannel, probability, probability, probability, probability).filter(
        lambda ch: (1.0, 0.0) not in (ch.params(1), ch.params(2))
    ),
)
# out_dir values the grammar carries: one line, no '#', no surrounding space
out_dirs = st.none() | st.text(min_size=1).filter(
    lambda s: "#" not in s and s == s.strip() and len(s.splitlines()) == 1
)


@st.composite
def experiment_configs(draw):
    T = draw(st.integers(1, 50))
    K = draw(st.integers(1, T))
    horizon = draw(st.integers(T, 10**6))
    return ExperimentConfig(
        T=T,
        K=K,
        q=draw(st.floats(0.0, float(K))),
        A_max=draw(st.integers(1, 100)),
        V=tuple(draw(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=5, unique_by=v_dir))),
        channel=draw(channels),
        horizon_slots=horizon,
        seed=draw(st.integers(0, 2**32)),
        replications=draw(st.integers(1, 10)),
        policy=draw(st.sampled_from(PolicyKind)),
        warmup_slots=draw(st.integers(0, (horizon // T - 1) * T)),
        out_dir=draw(out_dirs),
    )


@settings(max_examples=200)
@given(experiment_configs())
def test_render_parse_roundtrip(cfg):
    assert parse_config_text(render_config(cfg)) == cfg


def test_echo_keys_cover_known_keys():
    seen: set[str] = set()

    @settings(max_examples=100, derandomize=True)
    @given(experiment_configs())
    def collect(cfg):
        keys = set(cfg.echo())
        assert keys <= KNOWN_KEYS
        seen.update(keys)

    collect()
    assert seen == KNOWN_KEYS


def readme_config_section() -> str:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    after = text.split("### Config files", 1)[1]
    return re.split(r"^#{2,} ", after, maxsplit=1, flags=re.MULTILINE)[0]


def test_readme_config_section_documents_every_key():
    section = readme_config_section()
    block = re.search(r"```ini\n(.*?)```", section, re.DOTALL).group(1)
    cfg = parse_config_text(block)
    assert cfg.channel == GilbertElliotChannel(0.9, 0.6, 0.9, 0.6)
    assert sorted(k for k in KNOWN_KEYS if f"`{k}`" not in section) == []
