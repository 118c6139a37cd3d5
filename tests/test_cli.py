"""CLI tests: subcommand behavior, report grammar, exit codes."""

import contextlib
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emonet import cli, model_io, nn
from emonet.classifiers import EmotionScores, cnn_predict, evaluate
from emonet.config import ConfigError, load_config_file
from emonet.dataset import load_dataset_dir, save_dataset_dir
from emonet.glyphs import draw_glyph, make_glyph_dataset
from emonet.video import write_pgm

from test_pipeline import make_video
from test_video import fed_pipe


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("glyphs")
    x, y = make_glyph_dataset(n_per_class=8, seed=11)
    save_dataset_dir(x, y, str(root))
    return str(root)


@pytest.fixture(scope="module")
def lda_model_path(dataset_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("models") / "lda.emn1")
    code = cli.main(["train", "--data", dataset_dir, "--model-kind", "lda",
                     "--out", out])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def cnn_model_path(tmp_path_factory):
    """A small untrained 28x28 CNN, enough to drive the CNN paths of the CLI."""
    out = str(tmp_path_factory.mktemp("models") / "cnn.emn1")
    model = nn.build_model(28, [nn.LayerSpec("conv", kernel_size=3, filters=2),
                                nn.LayerSpec("sigmoid"), nn.LayerSpec("maxpool"),
                                nn.LayerSpec("dense", width=7),
                                nn.LayerSpec("softmax")], seed=3)
    model_io.save_model_file(model, out)
    return out


class TestFormatScores:
    def test_reference_report(self):
        # the paper's Figure 3 percentages, in LABELS order
        scores = EmotionScores(
            probs=np.array([0.82, 0.15, 7.89, 22.18, 8.10, 1.33, 53.85]) / 100.0)
        text = cli.format_scores(scores)
        assert text.splitlines() == [
            "angry=0.82%",
            "disgust=0.15%",
            "scared=7.89%",
            "happy=22.18%",
            "sad=8.10%",
            "surprised=1.33%",
            "neutral=53.85%",
            "argmax: neutral",
        ]


class TestTrainPredictEval:
    def test_train_lda_writes_model(self, lda_model_path, capsys):
        import os
        assert os.path.exists(lda_model_path)

    def test_train_cnn_prints_epochs(self, dataset_dir, tmp_path, capsys):
        out = str(tmp_path / "cnn.emn1")
        code = cli.main(["train", "--data", dataset_dir, "--epochs", "2",
                         "--out", out])
        captured = capsys.readouterr()
        assert code == 0
        assert "epoch 0:" in captured.out and "epoch 1:" in captured.out
        assert "loss=" in captured.out

    def test_predict_reports_argmax(self, lda_model_path, tmp_path, capsys):
        img = np.clip(np.rint(draw_glyph("happy") * 255.0), 0, 255).astype(np.uint8)
        path = tmp_path / "sample.pgm"
        path.write_bytes(write_pgm(img))
        code = cli.main(["predict", "--image", str(path),
                         "--model", lda_model_path])
        captured = capsys.readouterr()
        assert code == 0
        assert "argmax: happy" in captured.out
        assert sum("=" in line for line in captured.out.splitlines()) == 7

    def test_eval_prints_accuracy_and_confusion(self, lda_model_path,
                                                dataset_dir, capsys):
        code = cli.main(["eval", "--data", dataset_dir,
                         "--model", lda_model_path])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("accuracy: ")
        assert "neutral" in captured.out

    def test_predict_with_cnn_model(self, cnn_model_path, tmp_path, capsys):
        img = np.clip(np.rint(draw_glyph("sad") * 255.0), 0, 255).astype(np.uint8)
        path = tmp_path / "sample.pgm"
        path.write_bytes(write_pgm(img))
        code = cli.main(["predict", "--image", str(path),
                         "--model", cnn_model_path])
        captured = capsys.readouterr()
        assert code == 0
        model = model_io.load_model_file(cnn_model_path)
        sample = (img / 255.0).astype(np.float32)
        assert captured.out == cli.format_scores(cnn_predict(model, sample)) + "\n"

    def test_eval_with_cnn_model(self, cnn_model_path, dataset_dir, capsys):
        code = cli.main(["eval", "--data", dataset_dir,
                         "--model", cnn_model_path])
        captured = capsys.readouterr()
        assert code == 0
        model = model_io.load_model_file(cnn_model_path)
        accuracy, confusion = evaluate(model, *load_dataset_dir(dataset_dir, model.input_side))
        lines = captured.out.splitlines()
        assert lines[0] == f"accuracy: {accuracy * 100.0:.2f}"
        assert [list(map(int, line.split()[1:])) for line in lines[2:]] == confusion.tolist()

    @pytest.mark.parametrize("flag, value", [
        ("--epochs", "0"), ("--roi-size", "0"), ("--roi-size", "-3"), ("--roi-size", "65536"),
        ("--lr", "nan"), ("--lr", "inf"), ("--lr", "-inf"),
        ("--seed", "-1"), ("--seed", "18446744073709551616")])
    def test_bad_train_flag_is_validation_error(self, dataset_dir, tmp_path, capsys,
                                                monkeypatch, flag, value):
        def no_read(*args):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(cli, "load_dataset_dir", no_read)
        out = tmp_path / "m.emn1"
        code = cli.main(["train", "--data", dataset_dir, f"{flag}={value}", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {flag} must be ")
        assert list(tmp_path.iterdir()) == []

    def test_cnn_side_the_layer_stack_cannot_take_is_refused_before_reading(
            self, dataset_dir, tmp_path, capsys, monkeypatch):
        def no_read(*args):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(cli, "load_dataset_dir", no_read)
        out = tmp_path / "m.emn1"
        code = cli.main(["train", "--data", dataset_dir, "--roi-size", "8", "--epochs", "1",
                         "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: layer 5: maxpool needs H, W >= 2")
        assert list(tmp_path.iterdir()) == []


class TestRun:
    def test_end_to_end_run(self, lda_model_path, tmp_path, capsys):
        video = tmp_path / "clip.y4m"
        video.write_bytes(make_video(["neutral"] * 4 + ["sad"] * 4,
                                     canvas=100))
        dets = tmp_path / "clip.dets"
        lines = ["# min_size=1x1"] + [f"{i} 10 10 28 28" for i in range(8)]
        dets.write_text("\n".join(lines) + "\n")
        log = tmp_path / "events.log"
        code = cli.main(["run", "--video", str(video),
                         "--detections", str(dets),
                         "--model", lda_model_path,
                         "--thresh", "3", "--width", "100",
                         "--event-log", str(log)])
        captured = capsys.readouterr()
        assert code == 0
        assert "events=1" in captured.out
        assert log.read_text().startswith("7 sad 4 ")

    def test_event_log_is_appended_to(self, lda_model_path, tmp_path, capsys):
        video = tmp_path / "clip.y4m"
        video.write_bytes(make_video(["neutral"] * 4 + ["sad"] * 4, canvas=100))
        dets = tmp_path / "clip.dets"
        dets.write_text("# min_size=1x1\n" + "".join(f"{i} 10 10 28 28\n" for i in range(8)))
        log = tmp_path / "events.log"
        for _ in range(2):
            assert cli.main(["run", "--video", str(video), "--detections", str(dets),
                             "--model", lda_model_path, "--thresh", "3", "--width", "100",
                             "--event-log", str(log)]) == 0
        lines = log.read_text().splitlines()
        assert len(lines) == 2 and all(line.startswith("7 sad 4 ") for line in lines)

    def test_failed_video_open_keeps_the_event_log(self, lda_model_path, tmp_path, capsys):
        dets = tmp_path / "clip.dets"
        dets.write_text("# min_size=1x1\n0 10 10 28 28\n")
        log = tmp_path / "events.log"
        log.write_text("7 sad 4 2022-06-29T12:00:00+00:00\n")
        code = cli.main(["run", "--video", str(tmp_path / "missing.y4m"),
                         "--detections", str(dets), "--model", lda_model_path,
                         "--thresh", "3", "--event-log", str(log)])
        assert code == 2
        assert log.read_text() == "7 sad 4 2022-06-29T12:00:00+00:00\n"

    def test_run_over_a_pipe_matches_the_file(self, lda_model_path, tmp_path, capsys):
        data = make_video(["neutral"] * 4 + ["sad"] * 6 + ["happy"] * 5, canvas=100)
        video = tmp_path / "clip.y4m"
        video.write_bytes(data)
        dets = tmp_path / "clip.dets"
        boxes = "".join(f"{i} 10 10 28 28\n" for i in range(15) if i != 6)   # frame 6: no face
        dets.write_text("# min_size=1x1\n" + boxes)

        def run(video_path, log):
            assert cli.main(["run", "--video", video_path, "--detections", str(dets),
                             "--model", lda_model_path, "--thresh", "2", "--width", "100",
                             "--smooth-window", "3", "--event-log", str(log)]) == 0
            # each alert line ends with the wall time of its run
            return (capsys.readouterr().out,
                    [line.rsplit(" ", 1)[0] for line in log.read_text().splitlines()])

        from_file = run(str(video), tmp_path / "file.log")
        with fed_pipe(data) as pipe:
            assert not pipe.seekable()
            from_pipe = run(f"/dev/fd/{pipe.fileno()}", tmp_path / "pipe.log")
        assert from_pipe == from_file
        assert "events=1" in from_file[0] and "frames_no_face=1" in from_file[0]

    def test_config_file_supplies_thresh(self, lda_model_path, tmp_path, capsys):
        video = tmp_path / "clip.y4m"
        video.write_bytes(make_video(["happy"] * 2, canvas=100))
        dets = tmp_path / "clip.dets"
        dets.write_text("# min_size=1x1\n0 10 10 28 28\n1 10 10 28 28\n")
        conf = tmp_path / "run.conf"
        conf.write_text("thresh=5\nwidth=100\n")
        code = cli.main(["run", "--video", str(video),
                         "--detections", str(dets),
                         "--model", lda_model_path,
                         "--config", str(conf)])
        assert code == 0
        assert "events=0" in capsys.readouterr().out

    def test_missing_thresh_is_validation_error(self, lda_model_path,
                                                tmp_path, capsys):
        video = tmp_path / "clip.y4m"
        video.write_bytes(make_video(["happy"], canvas=100))
        dets = tmp_path / "clip.dets"
        dets.write_text("0 10 10 28 28\n")
        code = cli.main(["run", "--video", str(video),
                         "--detections", str(dets),
                         "--model", lda_model_path])
        assert code == 1


class TestExitCodes:
    def test_missing_model_file_is_io_error(self, tmp_path, capsys):
        img = tmp_path / "x.pgm"
        img.write_bytes(b"P5\n1 1\n255\n\x00")
        code = cli.main(["predict", "--image", str(img),
                         "--model", str(tmp_path / "nope.emn1")])
        assert code == 2

    def test_corrupt_model_is_io_error(self, tmp_path, capsys):
        img = tmp_path / "x.pgm"
        img.write_bytes(b"P5\n1 1\n255\n\x00")
        bad = tmp_path / "bad.emn1"
        bad.write_bytes(b"NOPE" + b"\x00" * 32)
        code = cli.main(["predict", "--image", str(img), "--model", str(bad)])
        assert code == 2

    @pytest.mark.parametrize("dims", [b"-2 -3", b"0 5"])
    def test_image_of_non_positive_geometry_is_io_error(self, lda_model_path, tmp_path,
                                                        dims):
        img = tmp_path / "x.pgm"
        img.write_bytes(b"P5\n" + dims + b"\n255\n" + b"\x00" * 6)
        code = cli.main(["predict", "--image", str(img), "--model", lda_model_path])
        assert code == 2

    def test_truncated_video_is_io_error(self, lda_model_path, tmp_path, capsys):
        video = tmp_path / "bad.y4m"
        video.write_bytes(b"YUV4MPEG2 W8 H8 F25:1 Cmono\nFRAME\n\x00\x00")
        dets = tmp_path / "d.dets"
        dets.write_text("# min_size=1x1\n0 0 0 8 8\n")
        code = cli.main(["run", "--video", str(video),
                         "--detections", str(dets),
                         "--model", lda_model_path, "--thresh", "3"])
        assert code == 2

    @pytest.mark.parametrize("argv", [["run", "--bogus"], ["train", "--epochs", "x"], ["fit"]])
    def test_usage_error_is_validation_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert "error: " in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: emonet run")


class TestModelSize:
    """run takes the ROI side from the model; no flag or config key names it."""

    def test_run_crops_to_the_models_side(self, dataset_dir, tmp_path, capsys):
        model = str(tmp_path / "lda8.emn1")
        assert cli.main(["train", "--data", dataset_dir, "--model-kind", "lda",
                         "--roi-size", "8", "--out", model]) == 0
        assert model_io.load_model_file(model).input_side == 8
        video = tmp_path / "clip.y4m"
        video.write_bytes(make_video(["sad"] * 3, canvas=100))
        dets = tmp_path / "clip.dets"
        dets.write_text("# min_size=1x1\n" + "".join(f"{i} 10 10 28 28\n" for i in range(3)))
        capsys.readouterr()
        code = cli.main(["run", "--video", str(video), "--detections", str(dets),
                         "--model", model, "--thresh", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "frames_seen=3 classified=3" in out and "frames_no_face=0" in out

    def test_roi_size_config_key_is_unknown(self, lda_model_path, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("thresh=5\nroi_size=28\n")
        with pytest.raises(ConfigError, match="unknown config key 'roi_size'"):
            load_config_file(str(conf), env={})
        code = cli.main(["run", "--video", str(tmp_path / "clip.y4m"),
                         "--detections", str(tmp_path / "clip.dets"),
                         "--model", lda_model_path, "--config", str(conf)])
        assert code == 1
        assert "unknown config key 'roi_size'" in capsys.readouterr().err

    def test_run_roi_size_flag_is_a_usage_error(self, lda_model_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--video", str(tmp_path / "clip.y4m"),
                      "--detections", str(tmp_path / "clip.dets"),
                      "--model", lda_model_path, "--thresh", "1", "--roi-size", "8"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --roi-size 8" in capsys.readouterr().err


class TestLyingVideoHeader:
    def test_huge_geometry_over_a_short_file_is_io_error(self, lda_model_path, tmp_path,
                                                        capsys):
        video = tmp_path / "lie.y4m"
        video.write_bytes(b"YUV4MPEG2 W3000000000 H3000000000 F25:1 Cmono\nFRAME\n"
                          + b"\x00" * 8)
        assert video.stat().st_size == 60
        dets = tmp_path / "d.dets"
        dets.write_text("# min_size=1x1\n0 0 0 8 8\n")
        code = cli.main(["run", "--video", str(video), "--detections", str(dets),
                         "--model", lda_model_path, "--thresh", "3"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: frame 0: wanted 9000000000000000000 luma bytes")
        assert "Traceback" not in err


_spec = importlib.util.spec_from_file_location(
    "demo_run", Path(__file__).resolve().parents[1] / "scripts" / "demo_run.py")
demo_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(demo_run)

# One edit: what it does, where (taken modulo the span edited) and its bytes.
EDITS = st.lists(st.tuples(st.sampled_from(("flip", "delete", "insert", "truncate")),
                           st.integers(0, 2**20), st.binary(min_size=1, max_size=4)),
                 min_size=1, max_size=3)


def edited(data: bytes, edits, header_only: bool) -> bytes:
    """data with each edit applied in turn: a bit flip, a deletion, an
    insertion or a truncation, within the first line when header_only."""
    out = bytearray(data)
    for kind, pos, blob in edits:
        at = pos % max(out.find(b"\n") + 1 if header_only else len(out), 1)
        if kind == "flip" and at < len(out):
            out[at] ^= 1 << blob[0] % 8
        elif kind == "delete":
            del out[at:at + len(blob)]
        elif kind == "insert":
            out[at:at] = blob
        elif kind == "truncate":
            del out[at:]
    return bytes(out)


@pytest.fixture(scope="module")
def run_inputs(dataset_dir, lda_model_path, tmp_path_factory):
    """The demo's clip and sidecar, small, and an LDA and a 1-epoch CNN model."""
    root = tmp_path_factory.mktemp("fuzz")
    cnn = str(root / "cnn.emn1")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train", "--data", dataset_dir, "--epochs", "1", "--out", cnn]) == 0
    video, sidecar = demo_run.build_clip(["neutral"] * 3 + ["sad"] * 3, canvas_w=160,
                                         canvas_h=120, at=(8, 8), side=96)
    return root, {"lda": lda_model_path, "cnn": cnn}, video, sidecar


@settings(max_examples=200, derandomize=True, deadline=None)
@given(kind=st.sampled_from(("lda", "cnn")), window=st.sampled_from(("1", "3", "5")),
       video_edits=st.none() | st.tuples(EDITS, st.booleans()),
       sidecar_edits=st.none() | st.tuples(EDITS, st.booleans()))
def test_any_edited_clip_or_sidecar_exits_cleanly(run_inputs, kind, window, video_edits,
                                                  sidecar_edits):
    """A guard: it held when it was written. emonet run on the demo's clip
    and sidecar, each with a few bytes flipped, deleted, inserted or cut
    (anywhere, or in the first line only), returns 0, 1 or 2 and prints no
    traceback."""
    root, models, video, sidecar = run_inputs
    (root / "clip.y4m").write_bytes(edited(video, *video_edits) if video_edits else video)
    (root / "clip.dets").write_bytes(edited(sidecar, *sidecar_edits) if sidecar_edits
                                     else sidecar)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["run", "--video", str(root / "clip.y4m"),
                         "--detections", str(root / "clip.dets"), "--model", models[kind],
                         "--thresh", "2", "--smooth-window", window])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
