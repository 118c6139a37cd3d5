#!/usr/bin/env python3
"""emonet benchmark: drives the public API on seeded, generated inputs,
checks every output, and prints its metrics by name and unit.

Run from the repository root:

    python3 perfbench/run.py --workload stream-cnn-mail --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 makes a separate traced
run and prints the per-layer ones. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
record the environment and the details. perfbench/README.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# One BLAS thread, set before numpy loads: on a host with two cores a second
# thread, spinning beside the sink process, measures the scheduler, and with
# one the main thread's CPU clock covers all of the program's work (pace.py).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

try:
    import numpy as np

    import emonet
    from emonet import pipeline, smtp_client
    from emonet.alerts import DEFAULT_MONITORED
    from emonet.classifiers import cnn_train, evaluate, lda_train
    from emonet.config import PipelineConfig
    from emonet.glyphs import make_glyph_dataset, split_dataset
    from emonet.model_io import load_model_file, save_model, save_model_file
    from emonet.preprocess import load_detections
    from emonet.video import Y4mReader
except ImportError as exc:
    sys.exit(f"perfbench: cannot import emonet from {ROOT / 'src'}: {exc}")
if Path(emonet.__file__).resolve().parent != (ROOT / "src" / "emonet").resolve():
    sys.exit(f"perfbench: imported emonet from {emonet.__file__}, not from {ROOT / 'src'}")

import clip as clips  # noqa: E402  (needs emonet on the path)
import tracing  # noqa: E402
from pace import Pace, cpu_now  # noqa: E402
from sink import Sink  # noqa: E402

now = tracing.now

SETUPS = 3                 # setup_s is the median of this many full set-ups
SINK_DELAY_S = 0.002       # per-reply delay of the SMTP sink: a relay a few ms away
WORKING_WIDTH = 500
# Every CNN fit starts from init/shuffle seed 7, the toy recipe's seed. From
# some other inits this sigmoid network sits at chance for 150+ SGD steps,
# which would make the accuracy floors depend on --seed. The glyph data
# still comes from --seed.
TRAIN_SEED = 7
QUICK_FIT = dict(epochs=10, lr=0.1, batch_size=8, seed=TRAIN_SEED)   # stream-cnn-mail model
TOY_FIT = dict(epochs=5, lr=0.1, batch_size=32, seed=TRAIN_SEED)     # train-toy, per cycle
LDA_REFITS = 4             # lda_train calls after each stream-lda-smooth5 pass
GLYPHS_PER_CLASS = {"cnn": 60, "lda": 200, "toy": 200}
ACC_FLOOR = {"cnn": 0.85, "lda": 0.80}
MAIL_FROM, MAIL_TO = "monitor@bench.invalid", ("oncall@bench.invalid",)


@dataclass(frozen=True)
class StreamSpec:
    model: str          # "cnn" or "lda"
    smooth_window: int
    mail: bool
    blocks: int         # clip length in label blocks of clip.BLOCK frames
    dropout: float      # share of frames without a usable box


STREAMS = {
    "stream-cnn-mail": StreamSpec("cnn", 1, True, 8, 0.0),
    "stream-lda-smooth5": StreamSpec("lda", 5, False, 4, 0.2),
}
DEPLOY = StreamSpec("cnn", 1, False, 5, 0.0)    # train-toy runs its fresh CNN on this clip
DEPLOY_PASSES = 8                               # ... this many times per cycle
WORKLOADS = (*STREAMS, "train-toy")


@dataclass
class Stream:
    clip: clips.Clip
    path: str
    log_path: str
    detections: object
    config: PipelineConfig
    expected: list


def stamp() -> tuple[float, float]:
    """Wall clock and the main thread's CPU clock, in seconds."""
    return now(), cpu_now()


def since(start: tuple[float, float]) -> tuple[float, float, float]:
    """The span since a stamp(): (start, wall, cpu) in seconds."""
    wall, cpu = stamp()
    return start[0], wall - start[0], cpu - start[1]


@dataclass
class Run:
    # Timed spans are (start, wall, cpu) in seconds; pace rescales their CPU
    # part. Untraced passes: frame index -> its interval in every pass, alert
    # frame -> its hand-off time in every pass, and each pass's wall time.
    frame_s: dict = field(default_factory=lambda: defaultdict(list))
    alert_s: dict = field(default_factory=lambda: defaultdict(list))
    pass_s: list = field(default_factory=list)
    untraced_ms: list = field(default_factory=list)   # the untraced frames of traced passes
    traced_ms: dict = field(default_factory=dict)     # (pass, frame) -> interval, traced frames
    setup_s: list = field(default_factory=list)
    fits: list = field(default_factory=list)          # (samples x epochs, span in s)
    pace: Pace = field(default_factory=Pace)
    eval_sps: list = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


class TimedReader:
    """Stamps every request the frame loop makes for its next frame.

    When traced, it decodes under a span and turns tracing on for odd
    frames only, so traced and untraced frames interleave.
    """

    def __init__(self, reader: Y4mReader, tracer: tracing.Tracer, pass_id, traced: bool):
        self.requests: list[tuple[float, float]] = []
        self._reader, self._tracer, self._pass_id = reader, tracer, pass_id
        self._traced = traced
        self._next = tracer.wrap("video.decode", next) if traced else next

    def __iter__(self):
        frames = iter(self._reader)
        try:
            while True:
                index = len(self.requests)
                self.requests.append(stamp())
                self._tracer.request = (self._pass_id, index)
                self._tracer.enabled = not self._traced or index % 2 == 1
                try:
                    frame = self._next(frames)
                except StopIteration:
                    return
                yield frame
        finally:
            self._tracer.enabled = True


class StampedLog:
    """Event-log file that stamps the moment each line is written."""

    def __init__(self, fh):
        self._fh = fh
        self.stamps: list[tuple[float, float]] = []

    def write(self, text: str) -> None:
        self._fh.write(text)
        self.stamps.append(stamp())

    def flush(self) -> None:
        self._fh.flush()


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def make_stream(spec: StreamSpec, seed: int, work: Path, tracer, run: Run,
                sink_port: int | None) -> Stream:
    clip = clips.make_clip(seed, spec.blocks, DEFAULT_MONITORED, spec.dropout)
    path, sidecar = str(work / "clip.y4m"), str(work / "clip.dets")
    clips.write_clip(clip, seed, path)
    clips.write_sidecar(clip, seed, sidecar)
    with open(sidecar, "rb") as fh:
        detections = tracer.call("preprocess.detections_load", load_detections, fh.read())
    run.check(detections.dropped_below_min_size == clip.small_boxes,
              f"sidecar: {detections.dropped_below_min_size} boxes dropped below min_size, "
              f"{clip.small_boxes} written")
    mail = dict(smtp_host="127.0.0.1", smtp_port=sink_port, alert_from=MAIL_FROM,
                alert_to=MAIL_TO) if spec.mail else {}
    config = PipelineConfig(thresh=clips.THRESH, cooldown=clips.COOLDOWN, width=WORKING_WIDTH,
                            smooth_window=spec.smooth_window, detections_coords="original",
                            **mail)
    return Stream(clip, path, str(work / "events.log"), detections, config,
                  clips.expected_events(clip, spec.smooth_window, DEFAULT_MONITORED))


def round_trip(model, work: Path, tracer, run: Run):
    """save_model_file -> load_model_file; the loaded model must save to the same bytes."""
    path = str(work / "model.emn1")
    tracer.call("model_io.save", save_model_file, model, path)
    loaded = tracer.call("model_io.load", load_model_file, path)
    with open(path, "rb") as fh:
        run.check(save_model(loaded) == fh.read(),
                  "model bytes changed across save -> load -> save")
    return loaded


def timed(fn, *args, **kwargs):
    """fn's result and its span in seconds."""
    start = stamp()
    result = fn(*args, **kwargs)
    return result, since(start)


def glyph_split(kind: str, seed: int):
    return split_dataset(*make_glyph_dataset(n_per_class=GLYPHS_PER_CLASS[kind], seed=seed))


def setup_stream(spec: StreamSpec, seed: int, work: Path, tracer, run: Run, sink_port):
    """Clip, sidecar, model fit on the glyph set, held-out check, EMN1 round trip."""
    start = stamp()
    stream = make_stream(spec, seed, work, tracer, run, sink_port)
    data = glyph_split(spec.model, seed)
    if spec.model == "cnn":
        model, _ = tracer.call("classifiers.cnn_train", cnn_train, data[0], data[1], **QUICK_FIT)
    else:
        model = tracer.call("classifiers.lda_fit", lda_train, data[0], data[1])
    (acc, _), eval_s = timed(tracer.call, "classifiers.evaluate", evaluate, model,
                             data[2], data[3])
    run.eval_sps.append(len(data[2]) / eval_s[1])
    run.check(acc >= ACC_FLOOR[spec.model],
              f"{spec.model} held-out accuracy {acc:.3f} below {ACC_FLOOR[spec.model]}")
    run.accuracy[spec.model] = acc
    model = round_trip(model, work, tracer, run)
    run.setup_s.append(since(start))
    run.pace.probe()
    return stream, model, data


def refit(kind: str, data, run: Run, tracer) -> None:
    """Timed after every pass, so the training throughput spans the run.

    LDA refits fully LDA_REFITS times; the CNN runs one epoch of the set-up recipe.
    """
    xtr, ytr = data[0], data[1]
    for _ in range(LDA_REFITS if kind == "lda" else 1):
        if kind == "lda":
            _, fit_s = timed(tracer.call, "classifiers.lda_fit", lda_train, xtr, ytr)
        else:
            _, fit_s = timed(tracer.call, "classifiers.cnn_train", cnn_train, xtr, ytr,
                             **{**QUICK_FIT, "epochs": 1})
        run.fits.append((len(xtr), fit_s))
        run.pace.probe()


# ---------------------------------------------------------------------------
# one pass over a clip
# ---------------------------------------------------------------------------

def check_messages(records: list[dict], events, config: PipelineConfig) -> list[str]:
    """One well-formed message per alert, in order, saying what the alert says.

    Returns one problem per missing, wrong or unexpected message.
    """
    problems = []
    for i, ev in enumerate(events):
        if i >= len(records):
            problems.append(f"no message for the alert at frame {ev.frame_index}")
            continue
        rec = records[i]
        bad = list(rec["problems"])
        if rec.get("mail_from") != config.alert_from or rec.get("rcpt") != list(config.alert_to):
            bad.append(f"envelope {rec.get('mail_from')} -> {rec.get('rcpt')}")
        want = (f"Subject: EMONET ALERT: {ev.label}", f"label: {ev.label}",
                f"frame: {ev.frame_index}", f"count: {ev.counter_value}")
        bad += [f"missing line {w!r}" for w in want if w not in rec["lines"]]
        if bad:
            problems.append(f"message {rec['seq']}: " + "; ".join(bad))
    problems += [f"unexpected message {rec['seq']}: {rec['problems']}"
                 for rec in records[len(events):]]
    return problems


def stream_pass(stream: Stream, model, run: Run, tracer, pass_id, traced: bool = False,
                sink: Sink | None = None) -> None:
    n = len(stream.clip.labels)
    run.attempted += n + len(stream.expected) * (2 if sink else 1)
    gc.collect()   # the bench's own garbage is not collected inside a timed pass
    extra = {"send": tracer.wrap("smtp.send", smtp_client.send_alert)} if traced else {}
    with open(stream.path, "rb") as fh, open(stream.log_path, "w", encoding="utf-8") as log_fh:
        reader = TimedReader(Y4mReader(fh), tracer, pass_id, traced)
        log = StampedLog(log_fh)
        with tracer.patched(tracing.STREAM_TARGETS if traced else ()):
            start = now()
            try:
                report = pipeline.run_stream(reader, stream.detections, model, stream.config,
                                             event_log=log, **extra)
            except pipeline.PipelineStageError as exc:
                run.failed += n
                run.problems.append(f"pass {pass_id}: {exc}")
                return
            wall = now() - start
    run.pace.probe()
    events = [(e.frame_index, e.label, e.counter_value) for e in report.events]
    run.check(events == stream.expected,
              f"pass {pass_id}: alerts {events} != expected {stream.expected}")
    run.check(report.state.frames_seen == n,
              f"pass {pass_id}: {report.state.frames_seen} of {n} frames seen")
    run.check(len(log.stamps) == len(events), f"pass {pass_id}: {len(log.stamps)} event-log lines")
    handoffs = log.stamps
    run.failed += report.smtp_failures + max(0, len(events) - len(log.stamps))
    if sink is not None:
        records = sink.take(len(events)) + sink.drain()
        bad = check_messages(records, report.events, stream.config)
        run.problems += bad
        run.failed += len(bad)
        # The sink stamps the final "." in its own process; the loop's CPU
        # clock is read at its next frame request, a few hundred µs of
        # client work later.
        handoffs = [(rec["t_end"], reader.requests[i + 1][1])
                    for (i, _, _), rec in zip(events, records)]
    run.counts = {"frames_no_face": report.state.frames_seen - report.state.classified_frames,
                  "alerts": len(events), "sends": report.emails_sent,
                  "smtp_failures": run.counts.get("smtp_failures", 0) + report.smtp_failures}
    intervals = np.diff(np.array(reader.requests), axis=0)   # (wall, cpu) s
    if traced:
        walls = list(intervals[:, 0] * 1e3)
        run.untraced_ms += walls[0::2]
        run.traced_ms.update(((pass_id, i), ms) for i, ms in enumerate(walls) if i % 2)
        return
    for i, (t0, _), (frame_wall, frame_cpu) in zip(range(n), reader.requests, intervals):
        run.frame_s[i].append((t0, frame_wall, frame_cpu))
    for (i, _, _), h in zip(events, handoffs):
        t0, cpu0 = reader.requests[i]
        run.alert_s[i].append((t0, h[0] - t0, h[1] - cpu0))
    run.pass_s.append(wall)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def measure_stream(name: str, args, run: Run, tracer, work: Path) -> dict:
    spec = STREAMS[name]
    sink = Sink(SINK_DELAY_S) if spec.mail else None
    try:
        for _ in range(SETUPS):
            stream, model, data = setup_stream(spec, args.seed, work, tracer, run,
                                               sink.port if sink else None)
        deadline, k, round_s = now() + args.seconds, 0, 0.0
        while k < 1 or now() + round_s / 2 < deadline:
            start = now()
            stream_pass(stream, model, run, tracer, k, traced=bool(args.trace), sink=sink)
            refit(spec.model, data, run, tracer)
            round_s, k = now() - start, k + 1
    finally:
        if sink is not None:
            sink.close()
    return {"clip": stream.clip.geometry, "model": spec.model,
            "smooth_window": spec.smooth_window, "mail": spec.mail,
            "dropped_below_min_size": stream.detections.dropped_below_min_size}


def toy_cycle(data, stream: Stream, run: Run, tracer, k: int, traced: bool,
              work: Path) -> bytes:
    """Train the CNN and LDA, evaluate both, round-trip both, deploy the CNN on the clip."""
    xtr, ytr, xte, yte = data
    tracer.request = ("cycle", k)
    with tracer.patched(tracing.NN_TARGETS if traced else ()):
        (cnn, _), train_s = timed(tracer.call, "classifiers.cnn_train", cnn_train, xtr, ytr,
                                  **TOY_FIT)
        run.pace.probe()
        lda = tracer.call("classifiers.lda_fit", lda_train, xtr, ytr)
        eval_start = now()
        cnn_acc, _ = tracer.call("classifiers.evaluate", evaluate, cnn, xte, yte)
        lda_acc, _ = tracer.call("classifiers.evaluate", evaluate, lda, xte, yte)
        eval_end = now()
    run.fits.append((TOY_FIT["epochs"] * len(xtr), train_s))
    run.eval_sps.append(2 * len(xte) / (eval_end - eval_start))
    for kind, acc in (("cnn", cnn_acc), ("lda", lda_acc)):
        run.check(acc >= ACC_FLOOR[kind], f"cycle {k}: {kind} test accuracy {acc:.3f} "
                                          f"below {ACC_FLOOR[kind]}")
        run.check(run.accuracy.setdefault(kind, acc) == acc,
                  f"cycle {k}: {kind} accuracy {acc} differs from cycle 0")
    run.attempted += 1
    round_trip(lda, work, tracer, run)
    cnn = round_trip(cnn, work, tracer, run)
    for p in range(DEPLOY_PASSES):
        stream_pass(stream, cnn, run, tracer, ("deploy", k, p), traced=traced)
    return save_model(cnn)


def measure_train(args, run: Run, tracer, work: Path) -> dict:
    for _ in range(SETUPS):
        start = stamp()
        data = glyph_split("toy", args.seed)
        stream = make_stream(DEPLOY, args.seed, work, tracer, run, None)
        run.setup_s.append(since(start))
        run.pace.probe()
    deadline, k, models, cycle_s = now() + args.seconds, 0, set(), 0.0
    while k < 1 or now() + cycle_s / 2 < deadline:
        start = now()
        models.add(toy_cycle(data, stream, run, tracer, k, bool(args.trace), work))
        cycle_s, k = now() - start, k + 1
    run.check(len(models) == 1, f"cnn_train gave {len(models)} different models for one seed")
    return {"clip": stream.clip.geometry, "train_samples": len(data[0]),
            "test_samples": len(data[2]), "cycles": k}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

E2E_UNITS = {"frames_per_s": "1/s", "frame_ms_p50": "ms", "frame_ms_p90": "ms",
             "alert_ms_p50": "ms", "train_samples_per_s": "1/s", "setup_s": "s",
             "peak_rss_mb": "MB"}


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def end_to_end(run: Run) -> dict:
    """Times rescaled to nominal host pace, each span at the pace around it
    (pace.py). Frame and alert times are each frame's (alert's) median over
    the run's replays of the clip."""
    def typical_ms(spans) -> float:
        return 1e3 * float(np.median([run.pace.normalise(*span) for span in spans]))

    frames = [typical_ms(spans) for spans in run.frame_s.values()]
    fitted = sum(run.pace.normalise(*span) for _, span in run.fits)
    return {
        "frames_per_s": 1e3 * len(frames) / sum(frames) if frames else 0.0,
        "frame_ms_p50": median(frames),
        "frame_ms_p90": percentile(frames, 90),
        "alert_ms_p50": median([typical_ms(spans) for spans in run.alert_s.values()]),
        "train_samples_per_s": sum(n for n, _ in run.fits) / fitted if fitted else 0.0,
        "setup_s": median([run.pace.normalise(*span) for span in run.setup_s]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def as_measured(run: Run) -> dict:
    """The same figures in plain wall time over every replay and fit, for the
    detail line."""
    frames = [1e3 * wall for spans in run.frame_s.values() for _, wall, _ in spans]
    fitted = sum(wall for _, (_, wall, _) in run.fits)
    return {
        "frames_per_s": len(frames) / sum(run.pass_s) if run.pass_s else 0.0,
        "frame_ms_p50": median(frames),
        "frame_ms_p90": percentile(frames, 90),
        "alert_ms_p50": median([1e3 * wall for spans in run.alert_s.values()
                                for _, wall, _ in spans]),
        "train_samples_per_s": sum(n for n, _ in run.fits) / fitted if fitted else 0.0,
        "setup_s": median([wall for _, wall, _ in run.setup_s]),
    }


LAYER_UNITS = {
    "video.decode_ms": "ms", "video.smooth_ms": "ms",
    "preprocess.resize_ms": "ms", "preprocess.roi_ms": "ms",
    "preprocess.frames_no_face": "count", "preprocess.dropped_below_min_size": "count",
    "preprocess.detections_load_ms": "ms",
    "classifiers.predict_ms": "ms", "classifiers.epoch_s": "s",
    "classifiers.epoch_acc_pass_s": "s", "classifiers.evaluate_s": "s",
    "classifiers.lda_fit_s": "s",
    "nn.step_ms": "ms", "nn.conv1.fwd_ms": "ms", "nn.conv2.fwd_ms": "ms",
    "nn.pool.fwd_ms": "ms", "nn.dense.fwd_ms": "ms", "nn.sigmoid.fwd_ms": "ms",
    "nn.backward_ms": "ms", "nn.pool.bwd_ms": "ms", "nn.update_ms": "ms",
    "alerts.ingest_us": "us", "alerts.events": "count",
    "smtp.send_ms": "ms", "smtp.sends": "count", "smtp.failures": "count",
    "smtp.loop_blocked_share": "ratio",
    "model_io.save_ms": "ms", "model_io.load_ms": "ms",
    "trace.frame_ms_p50_untraced": "ms", "trace.frame_ms_p50_traced": "ms",
    "trace.step_ms_untraced": "ms", "trace.accounted_share": "ratio",
    "trace.unaccounted_ms": "ms",
}


def per_layer(run: Run, tracer, dropped: int) -> dict:
    stream = tracing.stream_layers(tracer, run.traced_ms)
    untraced_p50 = median(run.untraced_ms)
    return {
        **{k: v for k, v in stream.items() if k != "accounted_ms"},
        "preprocess.frames_no_face": run.counts.get("frames_no_face", 0),
        "preprocess.dropped_below_min_size": dropped,
        "preprocess.detections_load_ms": tracer.mean_ms("preprocess.detections_load"),
        "classifiers.lda_fit_s": tracer.mean_ms("classifiers.lda_fit") / 1e3,
        **tracing.train_layers(tracer, TOY_FIT["epochs"]),
        "alerts.events": run.counts.get("alerts", 0),
        "smtp.sends": run.counts.get("sends", 0),
        "smtp.failures": run.counts.get("smtp_failures", 0),
        "model_io.save_ms": tracer.mean_ms("model_io.save"),
        "model_io.load_ms": tracer.mean_ms("model_io.load"),
        "trace.frame_ms_p50_untraced": untraced_p50,
        "trace.frame_ms_p50_traced": median(list(run.traced_ms.values())),
        "trace.accounted_share": stream["accounted_ms"] / untraced_p50 if untraced_p50 else 0.0,
    }


def blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                return int(fn())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run, tracer = Run(), tracing.Tracer()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    details: dict = {}
    try:
        if args.workload == "train-toy":
            details = measure_train(args, run, tracer, work)
        else:
            details = measure_stream(args.workload, args, run, tracer, work)
    except Exception as exc:   # a crash of the program under test is a failed run, reported as such
        traceback.print_exc()
        run.failed += 1
        run.problems.append(f"run aborted: {exc!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = per_layer(run, tracer, details.get("dropped_below_min_size", 0))
        units = LAYER_UNITS
    else:
        metrics = end_to_end(run)
        units = E2E_UNITS
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "blas_threads": blas_threads(), **details}
    print("env " + json.dumps(env))
    print("detail " + json.dumps({
        "error_ratio": run.failed / max(1, run.attempted),
        "accuracy": run.accuracy,
        "eval_samples_per_s": median(run.eval_sps),
        "replays": len(run.pass_s), "frames_per_replay": len(run.frame_s),
        "alerts_per_replay": len(run.alert_s), "fits": len(run.fits),
        "untraced_frames": len(run.untraced_ms), "traced_frames": len(run.traced_ms),
        "pace_median": run.pace.median, "pace_probes": len(run.pace.probes),
        "as_measured": as_measured(run),
        "setups": [wall for _, wall, _ in run.setup_s], "problems": run.problems[:20]}))
    print(json.dumps({
        "correct": not run.problems and run.failed == 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
