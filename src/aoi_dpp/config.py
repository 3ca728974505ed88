"""Experiment configuration: flat `key = value` text files, presets, echo.

Grammar: one `key = value` per line, `#` starts a comment, dotted keys for the
channel block. Unknown keys are rejected by name. The echo form round-trips:
parse -> render -> parse yields an identical config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from .channel import ChannelModel, GilbertElliotChannel, IIDChannel
from .model import FrameConfig
from .sim import PolicyKind


class ConfigError(ValueError):
    """Invalid experiment configuration; `key` names the offender when known."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message if key is None else f"{key}: {message}")
        self.key = key


_INT_KEYS = {"T", "K", "A_max", "horizon_slots", "seed", "replications", "warmup_slots"}
_FLOAT_KEYS = {"q", "discount", "z_cache_bucket"}
_CHANNEL_PROB_KEYS = {
    "channel.p1",
    "channel.p2",
    "channel.p11_1",
    "channel.p01_1",
    "channel.p11_2",
    "channel.p01_2",
}
_STRING_KEYS = {"channel.type", "policy", "out_dir"}
KNOWN_KEYS = _INT_KEYS | _FLOAT_KEYS | _CHANNEL_PROB_KEYS | _STRING_KEYS | {"V"}

_DEFAULTS = {
    "discount": 1.0,
    "seed": 1,
    "replications": 1,
    "policy": "drift_plus_penalty",
    "z_cache_bucket": 0.0,
    "warmup_slots": 0,
    "out_dir": None,
}
_REQUIRED = ("T", "K", "q", "A_max", "V", "channel.type", "horizon_slots")


@dataclass(frozen=True)
class ExperimentConfig:
    T: int
    K: int
    q: float
    A_max: int
    V: tuple[float, ...]
    discount: float
    channel: ChannelModel
    horizon_slots: int
    seed: int
    replications: int
    policy: PolicyKind
    z_cache_bucket: float
    warmup_slots: int
    out_dir: str | None

    def frame_config(self, v: float) -> FrameConfig:
        return FrameConfig(self.T, self.K, self.q, self.A_max, v, self.discount)

    def cells(self) -> list[tuple[float, int]]:
        """All (V, seed) runs this config describes."""
        return [
            (v, self.seed + r) for v in self.V for r in range(self.replications)
        ]

    def echo(self) -> dict:
        """Flat key/value form, identical to the accepted file keys."""
        out: dict = {
            "T": self.T,
            "K": self.K,
            "q": self.q,
            "A_max": self.A_max,
            "V": list(self.V),
            "discount": self.discount,
        }
        if isinstance(self.channel, IIDChannel):
            out["channel.type"] = "iid"
            out["channel.p1"] = self.channel.p1
            out["channel.p2"] = self.channel.p2
        else:
            out["channel.type"] = "gilbert_elliot"
            out["channel.p11_1"] = self.channel.p11_1
            out["channel.p01_1"] = self.channel.p01_1
            out["channel.p11_2"] = self.channel.p11_2
            out["channel.p01_2"] = self.channel.p01_2
        out.update(
            horizon_slots=self.horizon_slots,
            seed=self.seed,
            replications=self.replications,
            policy=self.policy.value,
            z_cache_bucket=self.z_cache_bucket,
            warmup_slots=self.warmup_slots,
        )
        if self.out_dir is not None:
            out["out_dir"] = self.out_dir
        return out


def render_config(cfg: ExperimentConfig) -> str:
    """Echo as parseable `key = value` text."""
    lines = []
    for key, value in cfg.echo().items():
        if isinstance(value, list):
            value = " ".join(repr(float(v)) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _parse_scalar(key: str, raw: str):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS or key in _CHANNEL_PROB_KEYS:
            return float(raw)
    except ValueError:
        raise ConfigError(f"cannot parse {raw!r}", key) from None
    return raw


def parse_config_text(text: str) -> ExperimentConfig:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError("unknown key", key)
        if key in raw:
            raise ConfigError("duplicate key", key)
        if not value:
            raise ConfigError("empty value", key)
        raw[key] = value

    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError("required key missing", key)

    values: dict = {}
    for key, raw_value in raw.items():
        if key == "V":
            try:
                values["V"] = tuple(
                    float(tok) for tok in raw_value.replace(",", " ").split()
                )
            except ValueError:
                raise ConfigError(f"cannot parse V list {raw_value!r}", "V") from None
        else:
            values[key] = _parse_scalar(key, raw_value)
    return _build(values)


def _build(values: dict) -> ExperimentConfig:
    merged = dict(_DEFAULTS)
    merged.update(values)

    channel_type = merged.pop("channel.type")
    prob = {k: merged.pop(k) for k in list(merged) if k.startswith("channel.")}
    try:
        if channel_type == "iid":
            extra = set(prob) - {"channel.p1", "channel.p2"}
            if extra:
                raise ConfigError("not an iid channel key", sorted(extra)[0])
            channel: ChannelModel = IIDChannel(
                p1=_require(prob, "channel.p1"),
                p2=_require(prob, "channel.p2"),
            )
        elif channel_type == "gilbert_elliot":
            extra = set(prob) - {
                "channel.p11_1", "channel.p01_1", "channel.p11_2", "channel.p01_2",
            }
            if extra:
                raise ConfigError("not a gilbert_elliot channel key", sorted(extra)[0])
            channel = GilbertElliotChannel(
                p11_1=_require(prob, "channel.p11_1"),
                p01_1=_require(prob, "channel.p01_1"),
                p11_2=_require(prob, "channel.p11_2"),
                p01_2=_require(prob, "channel.p01_2"),
            )
        else:
            raise ConfigError(
                f"must be 'iid' or 'gilbert_elliot', got {channel_type!r}",
                "channel.type",
            )
    except ValueError as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(str(err), "channel") from None

    try:
        policy = PolicyKind.parse(merged["policy"])
    except ValueError as err:
        raise ConfigError(str(err), "policy") from None

    if not merged["V"]:
        raise ConfigError("needs at least one value", "V")
    cfg = ExperimentConfig(
        T=merged["T"],
        K=merged["K"],
        q=merged["q"],
        A_max=merged["A_max"],
        V=tuple(merged["V"]),
        discount=merged["discount"],
        channel=channel,
        horizon_slots=merged["horizon_slots"],
        seed=merged["seed"],
        replications=merged["replications"],
        policy=policy,
        z_cache_bucket=merged["z_cache_bucket"],
        warmup_slots=merged["warmup_slots"],
        out_dir=merged["out_dir"],
    )
    _validate(cfg)
    return cfg


def _require(prob: dict, key: str) -> float:
    if key not in prob:
        raise ConfigError("required for this channel type", key)
    return prob[key]


def _validate(cfg: ExperimentConfig) -> None:
    # FrameConfig re-checks the model invariants for every V value.
    for v in cfg.V:
        try:
            cfg.frame_config(v)
        except ValueError as err:
            raise ConfigError(str(err)) from None
    if cfg.horizon_slots < cfg.T:
        raise ConfigError(
            f"must be >= T={cfg.T}, got {cfg.horizon_slots}", "horizon_slots"
        )
    if cfg.seed < 0:
        raise ConfigError(f"must be >= 0, got {cfg.seed}", "seed")
    if cfg.replications < 1:
        raise ConfigError("must be >= 1", "replications")
    if not 0 <= cfg.z_cache_bucket < math.inf:
        raise ConfigError(
            f"must be finite and >= 0, got {cfg.z_cache_bucket}", "z_cache_bucket"
        )
    if not 0 <= cfg.warmup_slots <= cfg.horizon_slots - cfg.T:
        raise ConfigError(
            f"must be in [0, horizon_slots - T], got {cfg.warmup_slots}",
            "warmup_slots",
        )


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    return parse_config_text(text)


def _reference_scenario(v_values: tuple[float, ...], replications: int = 1) -> ExperimentConfig:
    """The simulation-study scenario: symmetric Gilbert-Elliot links with
    p11 = 0.9 / p01 = 0.6, T = 20, K = 15, q = 12, A_max = 20, half a million
    slots."""
    return ExperimentConfig(
        T=20,
        K=15,
        q=12.0,
        A_max=20,
        V=tuple(float(v) for v in v_values),
        discount=1.0,
        channel=GilbertElliotChannel(p11_1=0.9, p01_1=0.6, p11_2=0.9, p01_2=0.6),
        horizon_slots=500_000,
        seed=1,
        replications=replications,
        policy=PolicyKind.DRIFT_PLUS_PENALTY,
        z_cache_bucket=0.0,
        warmup_slots=0,
        out_dir=None,
    )


PRESETS: dict[str, ExperimentConfig] = {
    "fig4a": _reference_scenario((0, 5, 10, 100, 150), replications=5),
    "fig4bc": _reference_scenario((0, 5, 10, 100, 150)),
    "fig5": _reference_scenario((5, 150)),
    "fig6": _reference_scenario((0, 5, 10, 100)),
    "fig7": _reference_scenario((0, 5, 10, 100)),
}


def preset(name: str) -> ExperimentConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; choose from {', '.join(sorted(PRESETS))}"
        ) from None


def with_overrides(
    cfg: ExperimentConfig,
    *,
    seed: int | None = None,
    horizon: int | None = None,
    out_dir: str | None = None,
    v_list: tuple[float, ...] | None = None,
) -> ExperimentConfig:
    """Apply CLI overrides and re-validate."""
    kwargs: dict = {}
    if seed is not None:
        kwargs["seed"] = seed
    if horizon is not None:
        kwargs["horizon_slots"] = horizon
    if out_dir is not None:
        kwargs["out_dir"] = out_dir
    if v_list is not None:
        kwargs["V"] = tuple(float(v) for v in v_list)
    updated = replace(cfg, **kwargs)
    _validate(updated)
    return updated
