"""Pipeline configuration: line-based key=value files plus environment
overrides for the SMTP settings (environment wins over the file).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .alerts import DEFAULT_MONITORED, AlertPolicy
from .preprocess import MAX_WORKING_SIDE
from .smtp_client import SmtpConfig, check_port_and_addresses

ENV_SMTP_HOST = "EMONET_SMTP_HOST"
ENV_SMTP_PORT = "EMONET_SMTP_PORT"
ENV_ALERT_FROM = "EMONET_ALERT_FROM"
ENV_ALERT_TO = "EMONET_ALERT_TO"


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    thresh: int
    width: int = 500
    monitored_labels: frozenset[str] = DEFAULT_MONITORED
    cooldown: int = 0
    smooth_window: int = 1               # 1 disables temporal smoothing
    detections_coords: str = "original"  # or "resized"
    smtp_host: str | None = None
    smtp_port: int = 25
    alert_from: str | None = None
    alert_to: tuple[str, ...] = ()

    def __post_init__(self):
        if not 1 <= self.width <= MAX_WORKING_SIDE:
            raise ConfigError(f"width must be in [1, {MAX_WORKING_SIDE}]")
        if self.smooth_window not in (1, 3, 5):
            raise ConfigError("smooth_window must be 1, 3 or 5")
        if self.detections_coords not in ("original", "resized"):
            raise ConfigError("detections_coords must be 'original' or 'resized'")
        try:
            # a partial SMTP section builds no SmtpConfig, so check it here too
            check_port_and_addresses(self.smtp_port, (self.alert_from or "", *self.alert_to))
            self.alert_policy()
            self.smtp_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def alert_policy(self) -> AlertPolicy:
        """The alert rules of this config; AlertPolicy owns their validation."""
        return AlertPolicy(thresh=self.thresh, monitored_labels=self.monitored_labels,
                           cooldown_frames=self.cooldown)

    def smtp_config(self) -> SmtpConfig | None:
        """SMTP settings if fully configured, else None (alerts log-only);
        SmtpConfig owns their validation."""
        if not (self.smtp_host and self.alert_from and self.alert_to):
            return None
        return SmtpConfig(host=self.smtp_host, port=self.smtp_port,
                          sender=self.alert_from, recipients=self.alert_to)


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key=value` lines; '#' starts a comment, blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        out[key] = val
    return out


def _split_list(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


# one parser per PipelineConfig field, applied to file and environment text
_PARSERS = {
    "thresh": int, "width": int, "cooldown": int,
    "smooth_window": int, "smtp_port": int,
    "detections_coords": str, "smtp_host": str, "alert_from": str,
    "monitored_labels": lambda text: frozenset(_split_list(text)),
    "alert_to": _split_list,
}

_ENV_KEYS = {ENV_SMTP_HOST: "smtp_host", ENV_SMTP_PORT: "smtp_port",
             ENV_ALERT_FROM: "alert_from", ENV_ALERT_TO: "alert_to"}


def build_config(file_values: dict[str, str] | None = None,
                 env: dict[str, str] | None = None,
                 **overrides) -> PipelineConfig:
    """Merge defaults < config file < environment (SMTP keys) < overrides."""
    values = dict(file_values or {})
    for key in values:
        if key not in _PARSERS:
            raise ConfigError(f"unknown config key {key!r}")
    env = os.environ if env is None else env
    values.update({key: env[var] for var, key in _ENV_KEYS.items() if env.get(var)})
    kwargs: dict = {}
    try:
        for key, text in values.items():
            kwargs[key] = _PARSERS[key](text)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    kwargs.update({k: v for k, v in overrides.items() if v is not None})
    if "thresh" not in kwargs:
        raise ConfigError("thresh is mandatory (config file or flag)")
    try:
        return PipelineConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config_file(path: str, env: dict[str, str] | None = None,
                     **overrides) -> PipelineConfig:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return build_config(parse_config_text(text), env=env, **overrides)
