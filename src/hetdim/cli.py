"""Command line entry points.

    hetdim run --config cfg.json [--out DIR]
    hetdim replay certificate.json
    hetdim check-model --config cfg.json

Logging verbosity comes from the HETDIM_LOG environment variable
(error | info | debug).  Exit codes: 0 all checks passed, 1 numeric failure,
2 input error.
"""

from __future__ import annotations

import argparse
import sys

from .runner import check_model, replay_certificate, run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hetdim",
                                     description="Heterodimensional-cycle laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)

    p_replay = sub.add_parser("replay", help="re-verify a cycle certificate")
    p_replay.add_argument("certificate")

    p_check = sub.add_parser("check-model", help="report standing conditions")
    p_check.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_experiment(args.config, out_dir=args.out)
    if args.command == "replay":
        return replay_certificate(args.certificate)
    if args.command == "check-model":
        return check_model(args.config)
    return 2


if __name__ == "__main__":
    sys.exit(main())
