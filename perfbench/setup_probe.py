"""Set-up time of one study in a fresh process.

Times ``import mlenkf`` through config build and validation in
``mlenkf.cli.main(["run", ...])``, stopping at the first call into
``experiment.run_experiment``, and prints the seconds on stdout.

    python3 perfbench/setup_probe.py <mlenkf run arguments>
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mlenkf.cli  # noqa: E402
from mlenkf import experiment  # noqa: E402


class _Reached(Exception):
    pass


def _stop(cfg, data=None):
    raise _Reached


if __name__ == "__main__":
    experiment.run_experiment = _stop
    try:
        code = mlenkf.cli.main(["run", *sys.argv[1:]])
    except _Reached:
        print(repr(time.perf_counter() - T0))
        sys.exit(0)
    sys.exit(f"setup probe: mlenkf run returned {code} before run_experiment")
