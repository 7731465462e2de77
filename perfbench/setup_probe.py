"""The set-up a user waits for before any trial runs.

A fresh interpreter imports ``batbench.cli``, parses each of the workload's
command lines and builds its benchmark spec and algorithm parameters, then
exits.  ``run.py`` times this process from spawn to exit.

Usage: PYTHONPATH=src python3 perfbench/setup_probe.py '<JSON list of argv lists>'
"""

import dataclasses
import json
import sys

from batbench import cli
from batbench.harness import default_params


def main(argvs: list[list[str]]) -> None:
    parser = cli.build_parser()
    for argv in argvs:
        args = parser.parse_args(argv)
        cli.benchmark_spec(args.function, args.dim)
        dataclasses.replace(default_params(args.algorithm), n=args.pop)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
