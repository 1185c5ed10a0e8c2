"""Train the stream workload's MS-TCN and write it with its sha256.

    python3 bench/make_stream_model.py

Criterion-7 config (2 stages x 7 layers x 16 filters, 20 epochs, lr 1e-3,
seed 0) on all ten subjects of the default seed-42 synthetic dataset. The
stream workload loads this checkpoint instead of training in every run, and
refuses it if its sha256 no longer matches `stream_model.ckpt.sha256`.
"""

import hashlib
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

from jumppipe import dataio, tcn  # noqa: E402

import workloads  # noqa: E402


def main():
    sessions, _ = dataio.synth_generate(workloads.default_dataset(42))
    weights, history = tcn.train(workloads.criterion7_config(), sessions)
    dataio.save_checkpoint(weights, workloads.STREAM_MODEL)
    with open(workloads.STREAM_MODEL, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    with open(workloads.STREAM_MODEL_SHA, "w") as fh:
        fh.write(f"{digest}  {os.path.basename(workloads.STREAM_MODEL)}\n")
    print(f"final loss {history[-1]:.6f}; sha256 {digest}")


if __name__ == "__main__":
    main()
