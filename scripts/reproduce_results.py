#!/usr/bin/env python3
"""Run the whole experiment: datasets, models, evaluation, analytic sweep.

Equivalent to the CLI stages
    csiauth gen / train / fit-detector x3 / eval / report / analytic
executed in order with one seed, leaving every artifact under --out.
"""

import argparse
import sys
import time

from csiauth.cli import main as cli_main


def run(stage_args):
    print(f"$ csiauth {' '.join(stage_args)}")
    code = cli_main(stage_args)
    if code != 0:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="runs/full")
    parser.add_argument("--pooled", action="store_true",
                        help="single GAN over all SNRs instead of one per SNR")
    args = parser.parse_args()

    common = ["--seed", str(args.seed), "--out", args.out]
    pooled = ["--pooled"] if args.pooled else []
    t0 = time.perf_counter()
    run(["gen", *common])
    run(["train", *common, *pooled])
    for algo in ("lof", "iforest", "ocsvm"):
        run(["fit-detector", "--algo", algo, *common])
    run(["eval", *common, *pooled])
    run(["report", *common])
    run(["analytic", *common])
    print(f"done in {time.perf_counter() - t0:.0f}s; reports under {args.out}/reports")


if __name__ == "__main__":
    main()
