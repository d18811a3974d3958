"""One cold set-up sample: import the minmax_hj CLI and load and
validate the given configs in a fresh interpreter; print the seconds.

Usage: python3 perfbench/setup_probe.py <src dir> <config.yaml>...
"""

import sys
import time


def main(src, configs):
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import minmax_hj.cli  # noqa: F401
    from minmax_hj.config import ExperimentConfig
    for path in configs:
        ExperimentConfig.from_yaml(path)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(main(sys.argv[1], sys.argv[2:])))
