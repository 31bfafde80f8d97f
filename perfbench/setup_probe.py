"""Time one set-up in a fresh process: import htwk and build the models.

Usage, from the repository root:

    python3 perfbench/setup_probe.py SPEC [SPEC ...]

Prints the seconds from before `import htwk.cli` to after the last
`spec_to_model` call.  Interpreter start-up is not included.
"""

import sys
import time


def main(specs: list[str]) -> None:
    t0 = time.perf_counter()
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import htwk.cli  # noqa: F401  the CLI is what every workload enters through
    from htwk.distspec import spec_to_model

    for spec in specs:
        spec_to_model(spec)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1:])
