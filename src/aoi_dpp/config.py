"""Experiment configuration: flat `key = value` text files, presets, echo.

Grammar: one `key = value` per line, `#` starts a comment, dotted keys for the
channel block. Unknown keys are rejected by name. The echo form round-trips:
parse -> render -> parse yields an identical config.

`ExperimentConfig` is the schema: each key's name, type and default is its
field's, and the `channel.*` keys are the fields of the channel classes.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

from .channel import ChannelModel, GilbertElliotChannel, IIDChannel
from .model import FrameConfig
from .sim import PolicyKind, check_run_inputs


class ConfigError(ValueError):
    """Invalid experiment configuration; `key` names the offender when known."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message if key is None else f"{key}: {message}")
        self.key = key


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    T: int
    K: int
    q: float
    A_max: int
    V: tuple[float, ...]
    discount: float = 1.0  # fixed: echoed in summary.json, no other use
    channel: ChannelModel  # the keys channel.type and channel.<field>
    horizon_slots: int
    seed: int = 1
    replications: int = 1
    policy: PolicyKind = PolicyKind.DRIFT_PLUS_PENALTY
    z_cache_bucket: float = 0.0  # fixed: echoed in summary.json, no other use
    warmup_slots: int = 0
    out_dir: str | None = None

    def frame_config(self, v: float) -> FrameConfig:
        return FrameConfig(self.T, self.K, self.q, self.A_max, v)

    def cells(self) -> list[tuple[float, int]]:
        """All (V, seed) runs this config describes."""
        return [
            (v, self.seed + r) for v in self.V for r in range(self.replications)
        ]

    def echo(self) -> dict:
        """Flat key/value form, identical to the accepted file keys."""
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "channel":
                out["channel.type"] = _CHANNEL_TYPES[type(value)]
                for c in fields(value):
                    out[f"channel.{c.name}"] = getattr(value, c.name)
            elif isinstance(value, tuple):
                out[f.name] = list(value)
            elif isinstance(value, PolicyKind):
                out[f.name] = value.value
            elif value is not None:
                out[f.name] = value
        return out


def v_dir(v: float) -> str:
    """Name of the output directory part that identifies a V value."""
    return f"V{v:g}"


def parse_v_list(text: str) -> tuple[float, ...]:
    """V values separated by commas and/or whitespace."""
    try:
        return tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"cannot parse V list {text!r}", "V") from None


_CHANNELS = {"iid": IIDChannel, "gilbert_elliot": GilbertElliotChannel}
_CHANNEL_TYPES = {cls: name for name, cls in _CHANNELS.items()}

# Text parser per field annotation (a string, under `from __future__ import
# annotations`). The other keys stay strings until the parser checks them.
_PARSERS = {"int": int, "float": float, "tuple[float, ...]": parse_v_list}
_SCALARS = {
    "channel.type": str,
    **{f"channel.{f.name}": _PARSERS[f.type] for c in _CHANNELS.values() for f in fields(c)},
    **{f.name: _PARSERS.get(f.type, str) for f in fields(ExperimentConfig) if f.name != "channel"},
}
KNOWN_KEYS = set(_SCALARS)


def render_config(cfg: ExperimentConfig) -> str:
    """Echo as parseable `key = value` text."""
    lines = []
    for key, value in cfg.echo().items():
        if isinstance(value, list):
            value = " ".join(repr(float(v)) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


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

    for f in fields(ExperimentConfig):
        key = "channel.type" if f.name == "channel" else f.name
        if f.default is MISSING and key not in raw:
            raise ConfigError("required key missing", key)

    values: dict = {}
    for key, raw_value in raw.items():
        try:
            values[key] = _SCALARS[key](raw_value)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"cannot parse {raw_value!r}", key) from None

    channel_type = values.pop("channel.type")
    cls = _CHANNELS.get(channel_type)
    if cls is None:
        raise ConfigError(
            f"must be 'iid' or 'gilbert_elliot', got {channel_type!r}",
            "channel.type",
        )
    probs = {
        key.removeprefix("channel."): values.pop(key)
        for key in [k for k in values if k.startswith("channel.")]
    }
    names = [f.name for f in fields(cls)]
    extra = sorted(set(probs) - set(names))
    if extra:
        article = "an" if channel_type == "iid" else "a"
        raise ConfigError(
            f"not {article} {channel_type} channel key", f"channel.{extra[0]}"
        )
    for name in names:
        if name not in probs:
            raise ConfigError("required for this channel type", f"channel.{name}")
    with _keyed_errors("channel."):
        values["channel"] = cls(**probs)

    if "policy" in values:
        try:
            values["policy"] = PolicyKind(values["policy"])
        except ValueError:
            choices = ", ".join(kind.value for kind in PolicyKind)
            raise ConfigError(
                f"unknown policy {values['policy']!r}; choose from {choices}", "policy"
            ) from None

    cfg = ExperimentConfig(**values)
    _validate(cfg)
    return cfg


@contextmanager
def _keyed_errors(prefix: str = ""):
    """Turn a ValueError("<name> must ...") into ConfigError(key=prefix + name)."""
    try:
        yield
    except ValueError as err:
        name, _, message = str(err).partition(" ")
        raise ConfigError(message, prefix + name) from None


def _validate(cfg: ExperimentConfig) -> None:
    if not cfg.V:
        raise ConfigError("needs at least one value", "V")
    # The frame objective is undiscounted, at the exact frame-start debt.
    for key, fixed in (("discount", 1.0), ("z_cache_bucket", 0.0)):
        value = getattr(cfg, key)
        if value != fixed:
            raise ConfigError(f"must be {fixed}, the only supported value, got {value!r}", key)
    with _keyed_errors():
        # FrameConfig re-checks the model invariants for every V value.
        for v in cfg.V:
            cfg.frame_config(v)
        check_run_inputs(cfg.T, cfg.channel, cfg.horizon_slots, cfg.seed, cfg.warmup_slots)
    if len(set(cfg.V)) < len(cfg.V):  # 0.0 == -0.0, though their dirs differ
        raise ConfigError(f"two values are equal: {' '.join(map(repr, cfg.V))}", "V")
    dirs = [v_dir(v) for v in cfg.V]
    if len(set(dirs)) < len(dirs):
        raise ConfigError(f"two values share a cell directory: {' '.join(dirs)}", "V")
    if cfg.replications < 1:
        raise ConfigError("must be >= 1", "replications")
    # summary.json echoes out_dir, and the echo must parse back to this config.
    out = cfg.out_dir
    if out is not None and ("#" in out or out != out.strip() or len(out.splitlines()) != 1):
        raise ConfigError(
            f"must be one line without '#' or surrounding whitespace, got {out!r}",
            "out_dir",
        )


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    return parse_config_text(text)


# The simulation-study scenario: symmetric Gilbert-Elliot links with
# p11 = 0.9 / p01 = 0.6, T = 20, K = 15, q = 12, A_max = 20, half a million
# slots. The presets differ only in the V sweep and the replications.
_REFERENCE = ExperimentConfig(
    T=20, K=15, q=12.0, A_max=20, V=(0.0, 5.0, 10.0, 100.0, 150.0),
    channel=GilbertElliotChannel(p11_1=0.9, p01_1=0.6, p11_2=0.9, p01_2=0.6),
    horizon_slots=500_000,
)

PRESETS: dict[str, ExperimentConfig] = {
    "fig4a": replace(_REFERENCE, replications=5),
    "fig4bc": _REFERENCE,
    "fig5": replace(_REFERENCE, V=(5.0, 150.0)),
    "fig6": replace(_REFERENCE, V=(0.0, 5.0, 10.0, 100.0)),
    "fig7": replace(_REFERENCE, V=(0.0, 5.0, 10.0, 100.0)),
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
    given = {
        "seed": seed,
        "horizon_slots": horizon,
        "out_dir": out_dir,
        "V": None if v_list is None else tuple(float(v) for v in v_list),
    }
    updated = replace(cfg, **{k: v for k, v in given.items() if v is not None})
    _validate(updated)
    return updated
