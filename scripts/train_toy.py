#!/usr/bin/env python3
"""Train both classifiers on the synthetic glyph set and report accuracy.

Reproduces the release benchmark: 200 samples/class, seed 7, 80/20
stratified split, 30 epochs of SGD for the CNN, PCA+LDA baseline on the
same split. Optionally writes both models to disk, and prints the sha256
of each model file written, so a change can be checked to leave the
trained model byte-identical.
"""

import argparse
import hashlib
import time
from pathlib import Path

from emonet import model_io
from emonet.classifiers import cnn_train, evaluate, lda_train
from emonet.glyphs import make_glyph_dataset, split_dataset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--per-class", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--lr", type=float, default=0.1)
    parser.add_argument("--cnn-out", help="write the CNN model here")
    parser.add_argument("--lda-out", help="write the LDA model here")
    args = parser.parse_args()
    if args.per_class < 3:
        parser.error("--per-class must be at least 3: the LDA needs 2 training "
                     "glyphs per label, and the test split one")

    x, y = make_glyph_dataset(n_per_class=args.per_class, seed=args.seed)
    xtr, ytr, xte, yte = split_dataset(x, y)
    print(f"dataset: {len(xtr)} train / {len(xte)} test")

    t0 = time.monotonic()
    cnn, history = cnn_train(xtr, ytr, epochs=args.epochs, lr=args.lr,
                             seed=args.seed)
    for h in history:
        print(f"epoch {h.epoch}: loss={h.mean_loss:.4f} "
              f"accuracy={h.train_accuracy * 100.0:.2f}%")
    train_acc, _ = evaluate(cnn, xtr, ytr)
    test_acc, _ = evaluate(cnn, xte, yte)
    print(f"cnn: train={train_acc * 100.0:.2f}% test={test_acc * 100.0:.2f}% "
          f"({time.monotonic() - t0:.1f}s)")

    lda = lda_train(xtr, ytr)
    lda_acc, _ = evaluate(lda, xte, yte)
    print(f"lda: test={lda_acc * 100.0:.2f}%")

    for model, path in ((cnn, args.cnn_out), (lda, args.lda_out)):
        if path:
            model_io.save_model_file(model, path)
            digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
            print(f"wrote {path} sha256={digest}")


if __name__ == "__main__":
    main()
