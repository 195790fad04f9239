#!/usr/bin/env python3
"""Run the whole experiment: datasets, models, evaluation, analytic sweep.

Equivalent to the CLI stages
    csiauth gen / train / fit-detector x3 / eval / report / analytic
executed in order with one seed, leaving every artifact under --out.
Ends with a table of each stage's wall and CPU seconds (process time, so
time spent waiting for the machine's other tenants does not count).
"""

import argparse
import os
import sys
import time

# One BLAS thread unless the caller chose otherwise: LOF's distances and
# OC-SVM's kernel are BLAS products, whose rounding, and so the model
# files' bytes, depend on the thread count. Set before numpy is imported.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

from csiauth.cli import main as cli_main


def run(stage_args, label, times):
    """Run one stage in process; append (label, wall s, CPU s) to `times`."""
    print(f"$ csiauth {' '.join(stage_args)}")
    wall, cpu = time.perf_counter(), time.process_time()
    code = cli_main(stage_args)
    if code != 0:
        sys.exit(code)
    times.append((label, time.perf_counter() - wall, time.process_time() - cpu))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="runs/full")
    parser.add_argument("--pooled", action="store_true",
                        help="single GAN over all SNRs instead of one per SNR")
    args = parser.parse_args()

    common = ["--seed", str(args.seed), "--out", args.out]
    pooled = ["--pooled"] if args.pooled else []
    times = []
    run(["gen", *common], "gen", times)
    run(["train", *common, *pooled], "train", times)
    for algo in ("lof", "iforest", "ocsvm"):
        run(["fit-detector", "--algo", algo, *common], f"fit-detector {algo}", times)
    run(["eval", *common, *pooled], "eval", times)
    run(["report", *common], "report", times)
    run(["analytic", *common], "analytic", times)

    print(f"\n{'stage':<22}{'wall s':>9}{'cpu s':>9}")
    for label, wall, cpu in times:
        print(f"{label:<22}{wall:>9.2f}{cpu:>9.2f}")
    print(f"{'total':<22}{sum(t[1] for t in times):>9.2f}{sum(t[2] for t in times):>9.2f}")
    print(f"reports under {args.out}/reports")


if __name__ == "__main__":
    main()
