"""Configuration parsing, merge precedence, and validation tests."""

import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emonet import config as cfg
from emonet import pipeline, preprocess
from emonet.classifiers import LABELS
from emonet.config import ConfigError, PipelineConfig, build_config, parse_config_text
from emonet.preprocess import DetectionSet


class TestParse:
    def test_key_value_lines(self):
        assert parse_config_text("thresh=5\nwidth = 320\n") == \
            {"thresh": "5", "width": "320"}

    def test_comments_and_blanks(self):
        text = "# leading comment\n\nthresh=5  # trailing\n"
        assert parse_config_text(text) == {"thresh": "5"}

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("thresh=5\njust words\n")
        assert "line 2" in str(exc.value)

    def test_last_duplicate_wins(self):
        assert parse_config_text("thresh=5\nthresh=9\n")["thresh"] == "9"


class TestBuild:
    def test_defaults(self):
        c = build_config({"thresh": "5"}, env={})
        assert (c.width, c.cooldown, c.smooth_window) == (500, 0, 1)
        assert c.detections_coords == "original"
        assert c.smtp_config() is None

    def test_width_bounded_by_the_longest_working_axis(self):
        with pytest.raises(ConfigError):
            PipelineConfig(thresh=1, width=10**9)
        longest = preprocess.MAX_WORKING_SIDE
        assert PipelineConfig(thresh=1, width=longest).width == longest
        with pytest.raises(ConfigError):
            PipelineConfig(thresh=1, width=longest + 1)
        with pytest.raises(ConfigError):
            build_config({"thresh": "1", "width": str(longest + 1)}, env={})

    def test_thresh_mandatory(self):
        with pytest.raises(ConfigError):
            build_config({}, env={})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_config({"thresh": "5", "cool_down": "3"}, env={})

    def test_file_values_parsed(self):
        c = build_config({"thresh": "3", "cooldown": "10",
                          "monitored_labels": "sad, angry",
                          "alert_to": "a@x.org, b@x.org"}, env={})
        assert c.cooldown == 10
        assert c.monitored_labels == frozenset({"sad", "angry"})
        assert c.alert_to == ("a@x.org", "b@x.org")

    def test_env_overrides_file_smtp(self):
        env = {cfg.ENV_SMTP_HOST: "mail.env", cfg.ENV_SMTP_PORT: "2525",
               cfg.ENV_ALERT_FROM: "env@x", cfg.ENV_ALERT_TO: "ops@x"}
        c = build_config({"thresh": "5", "smtp_host": "mail.file",
                          "alert_from": "file@x"}, env=env)
        assert c.smtp_host == "mail.env"
        assert c.smtp_port == 2525
        assert c.alert_from == "env@x"
        smtp = c.smtp_config()
        assert smtp is not None and smtp.recipients == ("ops@x",)

    def test_overrides_beat_env_and_file(self):
        env = {cfg.ENV_SMTP_PORT: "2525"}
        c = build_config({"thresh": "5", "width": "400"}, env=env,
                         thresh=9, width=320, smtp_port=1111)
        assert (c.thresh, c.width, c.smtp_port) == (9, 320, 1111)

    def test_none_overrides_ignored(self):
        c = build_config({"thresh": "5"}, env={}, cooldown=None)
        assert c.cooldown == 0

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("thresh=4\nsmooth_window=3\n")
        c = cfg.load_config_file(str(path), env={})
        assert (c.thresh, c.smooth_window) == (4, 3)


class TestValidation:
    def test_thresh_lower_bound(self):
        with pytest.raises(ConfigError):
            PipelineConfig(thresh=0)

    def test_smooth_window_values(self):
        for k in (1, 3, 5):
            assert PipelineConfig(thresh=1, smooth_window=k).smooth_window == k
        with pytest.raises(ConfigError):
            PipelineConfig(thresh=1, smooth_window=2)

    def test_detections_coords_enum(self):
        with pytest.raises(ConfigError):
            PipelineConfig(thresh=1, detections_coords="screen")

    def test_unknown_monitored_label(self):
        with pytest.raises(ConfigError):
            PipelineConfig(thresh=1, monitored_labels=frozenset({"gloomy"}))

    def test_partial_smtp_settings_stay_log_only(self):
        c = PipelineConfig(thresh=1, smtp_host="mail.x")  # sender/rcpt missing
        assert c.smtp_config() is None


class TestLoadTimeRules:
    @pytest.mark.parametrize("key, text", [("thresh", "abc"), ("width", "1.5"),
                                           ("smtp_port", "25 5")])
    def test_unparsable_value_names_its_key(self, key, text):
        with pytest.raises(ConfigError) as exc:
            build_config({"thresh": "5", key: text}, env={})
        assert key in str(exc.value)

    @pytest.mark.parametrize("values", [{"monitored_labels": " , "}, {"cooldown": "-3"}])
    def test_every_alert_rule_checked_when_built(self, values):
        with pytest.raises(ConfigError):
            build_config({"thresh": "5", **values}, env={})

    @pytest.mark.parametrize("port", [0, 65536, 70000])
    def test_smtp_port_outside_tcp_range(self, port):
        with pytest.raises(ConfigError):
            PipelineConfig(thresh=1, smtp_port=port)
        with pytest.raises(ConfigError):
            build_config({"thresh": "5"}, env={cfg.ENV_SMTP_PORT: str(port)})

    def test_file_that_is_not_utf8_names_its_path(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_bytes(b"thresh=5\nsmtp_host=caf\xe9.example\n")   # Latin-1
        with pytest.raises(ConfigError) as exc:
            cfg.load_config_file(str(path), env={})
        assert str(exc.value).startswith(f"{path}: not UTF-8 text")
        assert "at byte 22" in str(exc.value)

    def test_alert_policy_carries_the_fields(self):
        c = PipelineConfig(thresh=4, cooldown=9, monitored_labels=frozenset({"sad"}))
        policy = c.alert_policy()
        assert (policy.thresh, policy.cooldown_frames) == (4, 9)
        assert policy.monitored_labels == frozenset({"sad"})


_TEXT = st.one_of(
    st.text(max_size=8),
    st.integers(-3, 6).map(str),
    st.integers(0, 2**17).map(str),
    st.lists(st.sampled_from(LABELS + ("", "gloomy")), max_size=3).map(", ".join))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(values=st.dictionaries(st.sampled_from([f.name for f in dataclasses.fields(PipelineConfig)]),
                              _TEXT),
       env=st.dictionaries(st.sampled_from([cfg.ENV_SMTP_HOST, cfg.ENV_SMTP_PORT,
                                            cfg.ENV_ALERT_FROM, cfg.ENV_ALERT_TO]), _TEXT))
def test_any_text_builds_a_runnable_config_or_raises_config_error(values, env):
    try:
        c = build_config(values, env=env)
    except ConfigError:
        return
    report = pipeline.run_stream(iter(()), DetectionSet(), model=SimpleNamespace(input_side=28),
                                 config=c)
    assert report.state.frames_seen == 0
    assert 1 <= c.smtp_port <= 65535
    c.smtp_config()


class TestMailAddresses:
    @pytest.mark.parametrize("bad", ["a@x>\r\nRCPT TO:<evil@y", "a@x\nQUIT", "a@x\rQUIT",
                                     "<a@x>", "a@x>"])
    def test_smtp_command_characters_refused(self, bad):
        with pytest.raises(ConfigError):
            build_config({"thresh": "5"}, env={cfg.ENV_ALERT_FROM: bad})
        with pytest.raises(ConfigError):
            build_config({"thresh": "5"}, env={cfg.ENV_ALERT_TO: f"ok@x, {bad}"})
        with pytest.raises(ConfigError):
            PipelineConfig(thresh=5, alert_from=bad)
        if "\n" not in bad and "\r" not in bad:      # a file line cannot hold a line break
            with pytest.raises(ConfigError):
                build_config(parse_config_text(f"thresh=5\nalert_from={bad}\n"), env={})
            with pytest.raises(ConfigError):
                build_config(parse_config_text(f"thresh=5\nalert_to=ok@x,{bad}\n"), env={})

    @pytest.mark.parametrize("bad", ["p\u00e9@x", "ops@ex\u00e4mple.org", "a\u00a0b@x"])
    def test_non_ascii_refused(self, bad):
        # SMTP commands go out as ASCII: such an address would fail every alert
        with pytest.raises(ConfigError):
            build_config({"thresh": "5"}, env={cfg.ENV_ALERT_FROM: bad})
        with pytest.raises(ConfigError):
            build_config({"thresh": "5"}, env={cfg.ENV_ALERT_TO: f"ok@x, {bad}"})
        with pytest.raises(ConfigError):
            build_config(parse_config_text(f"thresh=5\nalert_from={bad}\n"), env={})
        with pytest.raises(ConfigError):
            build_config(parse_config_text(f"thresh=5\nalert_to=ok@x,{bad}\n"), env={})

    @pytest.mark.parametrize("bad", ["a..b", "a" * 64 + ".example.org", "."])
    def test_host_the_idna_codec_rejects_is_refused(self, bad):
        # the codec's UnicodeError is no SmtpError: it would end the run at the first alert
        mail = {cfg.ENV_ALERT_FROM: "cam@x.org", cfg.ENV_ALERT_TO: "ops@x.org"}
        with pytest.raises(ConfigError):
            build_config(parse_config_text(f"thresh=5\nsmtp_host={bad}\n"), env=mail)
        with pytest.raises(ConfigError):
            build_config({"thresh": "5"}, env={**mail, cfg.ENV_SMTP_HOST: bad})

    def test_host_label_of_63_characters_accepted(self):
        host = "a" * 63 + ".example.org"
        c = build_config({"thresh": "5", "smtp_host": host},
                         env={cfg.ENV_ALERT_FROM: "cam@x.org", cfg.ENV_ALERT_TO: "ops@x.org"})
        assert c.smtp_config().host == host

    def test_plain_addresses_accepted(self):
        c = build_config({"thresh": "5", "smtp_host": "mail.x"},
                         env={cfg.ENV_ALERT_FROM: "cam@x.org", cfg.ENV_ALERT_TO: "a@x.org, b@x.org"})
        assert c.smtp_config().recipients == ("a@x.org", "b@x.org")
