"""Acceptance suite: one test per release criterion, at the stated
tolerances and runtime budgets. Each test finishes by printing a single
PASS line so a `-s` run doubles as the sign-off checklist.
"""

import io
from datetime import datetime, timezone

import numpy as np
import pytest

from emonet import alerts, model_io, nn, pipeline, smtp_client
from emonet.alerts import AlertPolicy, CounterState
from emonet.classifiers import (EmotionScores, cnn_train, evaluate,
                                lda_predict, lda_train)
from emonet.config import PipelineConfig
from emonet.glyphs import make_glyph_dataset, split_dataset
from emonet.preprocess import load_detections
from emonet.video import (Frame, VideoHeader, Y4mReader, parse_pgm,
                          parse_y4m_header, write_pgm, write_y4m)

from nn_oracles import gradient_check
from smtp_server import SessionServer, dot_unstuff, play
from test_alerts import run_trace
from test_classifiers import bayes_oracle, random_lda_model
from test_nn import (conv_oracle, dense_oracle, maxpool_oracle,
                     tiny_fixture_model)
from test_pipeline import glyph_frame

PINNED_CLOCK = lambda: datetime(2022, 6, 29, 12, 0, 0, tzinfo=timezone.utc)


def ok(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_sigmoid_identity():
    """sigmoid_derivative(sigmoid(x)) == s(x)(1-s(x)) within 1e-12."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-30.0, 30.0, size=1000)
    got = nn.sigmoid_derivative(nn.sigmoid(x))
    s = (1.0 + np.exp(-x)) ** -1.0
    assert np.max(np.abs(got - s * (1.0 - s))) < 1e-12
    ok("sigmoid-identity")


def test_gradient_check():
    """Central differences vs analytic gradient on the tiny fixture model."""
    model = tiny_fixture_model(seed=3)
    x = np.random.default_rng(4).random((8, 8)).astype(np.float32)
    err = gradient_check(model, (x, 3), epsilon=1e-3)
    assert err < 1e-4
    ok("gradient-check")


def test_layer_oracles_100_shapes():
    """conv/dense/maxpool forward match naive loop oracles within 1e-6."""
    rng = np.random.default_rng(100)
    for trial in range(100):
        h, w = rng.integers(3, 10, size=2)
        c, f, m = rng.integers(1, 4, size=3)
        k = int(rng.integers(1, min(h, w) + 1))
        x = rng.random((h, w, c)).astype(np.float32)
        kern = (rng.random((k, k, c, f)) - 0.5).astype(np.float32)
        bias = (rng.random(f) - 0.5).astype(np.float32)
        np.testing.assert_allclose(nn._conv_batch(x[None], kern, bias)[0],
                                   conv_oracle(x, kern, bias), atol=1e-6)
        flat = x.reshape(-1)
        wmat = (rng.random((flat.size, m)) - 0.5).astype(np.float32)
        bvec = (rng.random(m) - 0.5).astype(np.float32)
        np.testing.assert_allclose(nn._dense_batch(flat[None], wmat, bvec)[0],
                                   dense_oracle(flat, wmat, bvec), atol=1e-6)
        if h >= 2 and w >= 2:
            pooled = nn._maxpool_batch(x[None])[0][0]
            np.testing.assert_allclose(pooled, maxpool_oracle(x), atol=1e-6)
    ok("layer-oracles")


def test_bayes_oracle_1000_draws():
    """lda_posterior vs 60-digit direct Bayes evaluation, 1e-10."""
    from emonet.classifiers import lda_posterior
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        model = random_lda_model(rng, k=int(rng.integers(2, 6)),
                                 d=int(rng.integers(1, 5)))
        z = rng.standard_normal(model.covariance.shape[0]) * 2.0
        got = lda_posterior(model, z)
        assert abs(got.sum() - 1.0) < 1e-12
        worst = max(worst, np.max(np.abs(got - bayes_oracle(model, z))))
    assert worst < 1e-10
    ok("bayes-oracle")


@pytest.mark.slow
def test_toy_scale_classification():
    """Glyph dataset, seed 7: CNN >=95% train / >=90% test in 30 epochs;
    PCA+LDA baseline >=80% test."""
    x, y = make_glyph_dataset(n_per_class=200, seed=7)
    xtr, ytr, xte, yte = split_dataset(x, y, train_frac=0.8)
    assert len(xtr) == 1120 and len(xte) == 280

    cnn, _ = cnn_train(xtr, ytr, epochs=30, lr=0.1, seed=7)
    train_acc, _ = evaluate(cnn, xtr, ytr)
    test_acc, _ = evaluate(cnn, xte, yte)
    assert train_acc >= 0.95, f"CNN train accuracy {train_acc:.3f}"
    assert test_acc >= 0.90, f"CNN test accuracy {test_acc:.3f}"

    lda = lda_train(xtr, ytr)
    lda_acc, _ = evaluate(lda, xte, yte)
    assert lda_acc >= 0.80, f"LDA test accuracy {lda_acc:.3f}"
    ok("toy-scale-classification")


def test_alert_state_machine_traces():
    """Exact-match table-driven traces from the release checklist."""
    policy = AlertPolicy(thresh=5)
    _, events = run_trace(["sad"] * 6, policy)
    assert [e.frame_index for e in events] == [6]
    _, events = run_trace(["sad"] * 5, policy)
    assert events == []
    policy = AlertPolicy(thresh=5, cooldown_frames=10)
    _, events = run_trace(["sad"] * 30, policy)
    assert [e.frame_index for e in events] == [6, 22]
    fig3 = EmotionScores(   # percentages in LABELS order
        probs=np.array([0.82, 0.15, 7.89, 22.18, 8.10, 1.33, 53.85]) / 100.0)
    state = CounterState()
    ev = alerts.ingest(state, AlertPolicy(thresh=1), 1, fig3,
                       clock=PINNED_CLOCK)
    assert fig3.label == "neutral" and ev is None
    assert all(state.counters[m] == 0
               for m in alerts.DEFAULT_MONITORED)
    ok("alert-state-machine")


def _e2e_video_and_sidecar():
    """A 500-wide stream: 4x-upscaled glyphs in 112-px face boxes,
    14 neutral frames then 6 sad ones."""
    labels = ["neutral"] * 14 + ["sad"] * 6
    frames = []
    for i, label in enumerate(labels):
        f = glyph_frame(i, label, canvas=500, at=(20, 20), glyph_side=112)
        frames.append(Frame(index=i, width=500, height=300,
                            luma=f.luma[:300, :]))
    video = write_y4m(VideoHeader(500, 300, 25, 1, "mono"), frames)
    lines = ["# scale_factor=1.0 min_neighbors=12 min_size=60x60"]
    lines += [f"{i} 20 20 112 112" for i in range(20)]
    sidecar = load_detections(("\n".join(lines) + "\n").encode())
    return video, sidecar


@pytest.fixture(scope="module")
def toy_lda_model():
    x, y = make_glyph_dataset(n_per_class=40, seed=3)
    return lda_train(x, y)


def test_end_to_end_stream(toy_lda_model):
    """Y4M + sidecar + trained toy model => deterministic event log and
    exactly one scripted SMTP session with a well-formed dialogue."""
    video, sidecar = _e2e_video_and_sidecar()
    script = ["220 stub", "250 stub", "250 ok", "250 ok", "250 ok",
              "354 go", "250 queued", "221 bye"]
    logs = []
    session = None
    for attempt in range(2):
        with SessionServer(play(script)) as server:
            config = PipelineConfig(
                thresh=5, width=500, smtp_host="127.0.0.1",
                smtp_port=server.port, alert_from="monitor@example.org",
                alert_to=("oncall@example.org", "ward@example.org"))
            log = io.StringIO()
            report = pipeline.run_stream(Y4mReader(video), sidecar,
                                         toy_lda_model, config,
                                         event_log=log, clock=PINNED_CLOCK)
            logs.append(log.getvalue())
            if attempt == 0:
                session = server.sessions[0]
        assert len(report.events) == 1
        assert report.emails_sent == 1 and report.smtp_failures == 0
    assert logs[0] == logs[1]
    assert logs[0] == "19 sad 6 2022-06-29T12:00:00+00:00\n"
    # exactly one captured session; dialogue contents
    assert "MAIL FROM:<monitor@example.org>" in session.commands
    assert "RCPT TO:<oncall@example.org>" in session.commands
    assert "RCPT TO:<ward@example.org>" in session.commands
    assert session.raw.count(b"\r\n") == len(session.raw.split(b"\r\n")) - 1
    assert b"DATA\r\n" in session.raw
    assert b"\r\n.\r\n" in session.raw  # terminator line
    body = session.unstuffed_body()
    assert dot_unstuff(smtp_client.dot_stuff(body)) == body
    assert any(line == "label: sad" for line in body)
    ok("end-to-end")


def test_persistence_round_trips(toy_lda_model):
    """save->load->save byte-identical; predictions bit-identical;
    corruption rejected with the named errors."""
    cnn = tiny_fixture_model(seed=9)
    for model in (cnn, toy_lda_model):
        blob = model_io.save_model(model)
        loaded = model_io.load_model(blob)
        assert model_io.save_model(loaded) == blob
    x = np.random.default_rng(2).random((8, 8)).astype(np.float32)
    reloaded = model_io.load_model(model_io.save_model(cnn))
    np.testing.assert_array_equal(cnn.predict_proba(x)[0],
                                  reloaded.predict_proba(x)[0])
    quantized = model_io.load_model(model_io.save_model(toy_lda_model))
    sample = np.random.default_rng(3).random((28, 28))
    np.testing.assert_array_equal(
        lda_predict(quantized, sample).probs,
        lda_predict(model_io.load_model(model_io.save_model(quantized)),
                    sample).probs)
    blob = bytearray(model_io.save_model(cnn))
    blob[0] ^= 0xFF
    with pytest.raises(model_io.BadMagic):
        model_io.load_model(bytes(blob))
    with pytest.raises(model_io.TruncatedPayload):
        model_io.load_model(model_io.save_model(cnn)[:-4])
    ok("persistence")


def test_parser_round_trips_and_errors():
    """Y4M/PGM write-then-parse bit-exact; truncation => named errors."""
    import emonet.video as video
    rng = np.random.default_rng(6)
    frames = [Frame(index=i, width=12, height=8,
                    luma=rng.integers(0, 256, (8, 12), dtype=np.uint8))
              for i in range(3)]
    for chroma in ("mono", "420"):
        data = write_y4m(VideoHeader(12, 8, 25, 1, chroma), frames)
        back = list(Y4mReader(data))
        assert len(back) == 3
        for a, b in zip(frames, back):
            np.testing.assert_array_equal(a.luma, b.luma)
        reader = Y4mReader(data[:-5])
        with pytest.raises(video.TruncatedFrame):
            for _ in reader:
                pass
    pgm = write_pgm(frames[0].luma)
    np.testing.assert_array_equal(parse_pgm(pgm), frames[0].luma)
    with pytest.raises(video.TruncatedPixels):
        parse_pgm(pgm[:-5])
    with pytest.raises(video.MissingSignature):
        parse_y4m_header(b"NOTY4M W2 H2 F1:1\n")
    ok("parsers")
