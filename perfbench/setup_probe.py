"""Time one fresh-interpreter set-up of a benchmark workload.

Set-up is what a user of ``hcl`` pays before the command's own work starts:
importing the package, resolving the config and building the dataset. The
probe prints the seconds it took as its only line of output.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def main(name: str, seed: int) -> float:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import hcl.cli  # noqa: F401  (the console entry point imports all of hcl)
    from hcl.config import resolve_config
    from hcl.train import build_dataset

    cfg = resolve_config(workloads.config(name, seed))
    # the bound check generates its data inside the command
    if name != "unsup-bound":
        build_dataset(cfg)
    return time.perf_counter() - _T0


if __name__ == "__main__":
    print(repr(main(sys.argv[1], int(sys.argv[2]))))
