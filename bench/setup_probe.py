"""Set-up of each workload: import zigzagsim and parse the workload's inputs
with the program's own parsers, up to the first run.

``setup`` is shared by the benchmark process and by this file's entry
point, which times one set-up in a fresh interpreter and prints the
seconds it took:

    python3 bench/setup_probe.py pair_congested bench/out/.../inputs
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def setup(workload, input_dir):
    """Return the parsed inputs of ``workload`` read from ``input_dir``."""
    from zigzagsim import cli, scenario
    if workload == "pair_congested":
        sc = scenario.load_scenario(os.path.join(input_dir, "pair.cfg"))
        return sc.with_policy("baseline"), sc.with_policy("zigzag")
    if workload == "campaign_artifacts":
        spec = cli.load_matrix_spec(os.path.join(input_dir, "matrix.cfg"))
        return cli.expand_matrix(spec)
    if workload == "loss_validate":
        parser = cli.build_parser()
        with open(os.path.join(input_dir, "validate.args"),
                  encoding="utf-8") as fh:
            return [parser.parse_args(line.split()) for line in fh
                    if line.strip()]
    raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    setup(sys.argv[1], sys.argv[2])
    print(repr(time.perf_counter() - t0))
