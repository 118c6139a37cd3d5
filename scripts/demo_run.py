#!/usr/bin/env python3
"""Self-contained demo: synthesize a short Y4M clip with glyph "faces",
train a quick baseline model, run the monitoring pipeline, and print the
alert log. Each alert mail is printed as it would be sent; no connection
is opened.
"""

import argparse
import io

import numpy as np

from emonet import pipeline
from emonet.classifiers import lda_train
from emonet.config import PipelineConfig
from emonet.glyphs import draw_glyph, make_glyph_dataset
from emonet.preprocess import bilinear_resize, load_detections
from emonet.smtp_client import HELLO_NAME, format_alert_message
from emonet.video import Frame, VideoHeader, Y4mReader, write_y4m


def build_clip(labels, canvas_w=500, canvas_h=300, at=(20, 20), side=112, shift=(0, 0)):
    """A Y4M clip of one glyph face per frame and its detections sidecar.

    Frame i's face, and its box, sit at at + i * shift (x, y), so a
    non-zero shift moves the face that many pixels per frame; it must stay
    inside the canvas.
    """
    frames, boxes = [], []
    for i, label in enumerate(labels):
        x, y = at[0] + i * shift[0], at[1] + i * shift[1]
        if not (0 <= x <= canvas_w - side and 0 <= y <= canvas_h - side):
            raise ValueError(f"frame {i}: face at ({x}, {y}) leaves the canvas")
        luma = np.zeros((canvas_h, canvas_w), dtype=np.uint8)
        glyph = bilinear_resize(draw_glyph(label), side, side)
        luma[y:y + side, x:x + side] = np.clip(np.rint(glyph * 255.0), 0, 255).astype(np.uint8)
        frames.append(Frame(index=i, width=canvas_w, height=canvas_h, luma=luma))
        boxes.append(f"{i} {x} {y} {side} {side}")
    header = VideoHeader(canvas_w, canvas_h, 25, 1, "mono")
    sidecar = ["# scale_factor=1.0 min_neighbors=12 min_size=60x60"] + boxes
    return write_y4m(header, frames), ("\n".join(sidecar) + "\n").encode()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--thresh", type=int, default=5)
    parser.add_argument("--sad-frames", type=int, default=6)
    parser.add_argument("--neutral-frames", type=int, default=14)
    args = parser.parse_args()

    print("training baseline model on synthetic glyphs...")
    x, y = make_glyph_dataset(n_per_class=40, seed=3)
    model = lda_train(x, y)

    labels = ["neutral"] * args.neutral_frames + ["sad"] * args.sad_frames
    video, sidecar = build_clip(labels)
    detections = load_detections(sidecar)

    def print_mail(smtp_config, event):
        print(f"--- alert mail for frame {event.frame_index} ---")
        message_id = f"frame-{event.frame_index}@{HELLO_NAME}"
        for line in format_alert_message(smtp_config, event, message_id):
            print(line)

    config = PipelineConfig(thresh=args.thresh, width=500,
                            smtp_host="mail.example.org",
                            alert_from="monitor@example.org",
                            alert_to=("oncall@example.org",))
    log = io.StringIO()
    report = pipeline.run_stream(Y4mReader(video), detections, model,
                                 config, event_log=log, send=print_mail)
    print("--- run summary ---")
    print(report.summary_text())
    print("--- event log ---")
    print(log.getvalue() or "(no alerts)")


if __name__ == "__main__":
    main()
