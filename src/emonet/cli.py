"""Operator CLI: train, predict, eval and run subcommands.

Exit status: 0 success, 1 validation/usage error, 2 I/O or protocol
failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import model_io, nn, pipeline
from .classifiers import LABELS, EmotionScores, cnn_train, evaluate, lda_train
from .config import build_config, load_config_file
from .dataset import load_dataset_dir
from .preprocess import extract_roi, load_detections
from .video import VideoFormatError, Y4mReader, parse_pgm

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def format_scores(scores: EmotionScores) -> str:
    """Stable report grammar: one `label=NN.NN%` line per label, then argmax."""
    lines = [f"{name}={p * 100.0:.2f}%" for name, p in zip(LABELS, scores.probs)]
    lines.append(f"argmax: {scores.label}")
    return "\n".join(lines)


def _cmd_train(args) -> int:
    # each flag must fit the training loop and the EMN1 file (side u16, seed u64)
    for ok, rule in ((args.epochs >= 1, "--epochs must be >= 1"),
                     (1 <= args.roi_size <= 0xFFFF, "--roi-size must be in 1..65535"),
                     (math.isfinite(args.lr), "--lr must be a finite number"),
                     (0 <= args.seed < 2**64, "--seed must be in 0..2**64-1")):
        if not ok:
            print(f"error: {rule}", file=sys.stderr)
            return EXIT_VALIDATION
    if args.model_kind == "cnn":   # a side too small for the layer stack raises here
        nn.param_shapes(args.roi_size, nn.emotion_layer_stack())
    x, y = load_dataset_dir(args.data, args.roi_size)
    if args.model_kind == "lda":
        model = lda_train(x, y)
        print("fitted PCA+LDA model "
              f"(d={model.pca_basis.shape[1]}, n={len(y)})")
    else:
        model, history = cnn_train(x, y, epochs=args.epochs, lr=args.lr,
                                   seed=args.seed)
        for h in history:
            print(f"epoch {h.epoch}: loss={h.mean_loss:.4f} "
                  f"accuracy={h.train_accuracy * 100.0:.2f}%")
    model_io.save_model_file(model, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    model = model_io.load_model_file(args.model)
    with open(args.image, "rb") as fh:
        img = parse_pgm(fh.read())
    roi = extract_roi(img, model.input_side)
    print(format_scores(EmotionScores(probs=model.predict_proba(roi)[0])))
    return EXIT_OK


def _cmd_eval(args) -> int:
    model = model_io.load_model_file(args.model)
    x, y = load_dataset_dir(args.data, model.input_side)
    accuracy, confusion = evaluate(model, x, y)
    print(f"accuracy: {accuracy * 100.0:.2f}")
    print("confusion (rows true, cols predicted):")
    for i, name in enumerate(LABELS):
        print(f"{name:>10} " + " ".join(f"{n:5d}" for n in confusion[i]))
    return EXIT_OK


def _cmd_run(args) -> int:
    overrides = dict(thresh=args.thresh, cooldown=args.cooldown, width=args.width,
                     smooth_window=args.smooth_window)
    config = (load_config_file(args.config, **overrides) if args.config
              else build_config(**overrides))
    model = model_io.load_model_file(args.model)
    with open(args.detections, "rb") as fh:
        detections = load_detections(fh.read())
    log_fh = open(args.event_log, "a", encoding="utf-8") if args.event_log else None
    try:
        with open(args.video, "rb") as fh:
            reader = Y4mReader(fh)
            report = pipeline.run_stream(
                reader, detections, model, config, event_log=log_fh,
                warn=lambda msg: print(f"warning: {msg}", file=sys.stderr))
    finally:
        if log_fh:
            log_fh.close()
    print(report.summary_text())
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # argparse's own exit status, 2, means an I/O failure here
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="emonet",
        description="Facial-emotion monitoring: classification and alerting")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a classifier on a label-directory dataset")
    p.add_argument("--data", required=True, help="dataset root (one dir per label)")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--roi-size", type=int, default=28)
    p.add_argument("--model-kind", choices=("cnn", "lda"), default="cnn")
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="score a single PGM image")
    p.add_argument("--image", required=True)
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="accuracy and confusion matrix on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("run", help="process a Y4M stream with detections sidecar")
    p.add_argument("--video", required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--thresh", type=int)
    p.add_argument("--cooldown", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--smooth-window", type=int)
    p.add_argument("--event-log", help="file to append alert lines to")
    p.set_defaults(func=_cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, VideoFormatError, model_io.ModelFileError,
            pipeline.PipelineStageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
