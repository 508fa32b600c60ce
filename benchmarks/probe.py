"""Child-process helpers of the benchmark.

    python3 probe.py setup WORKLOAD       print seconds of one cold set-up
    python3 probe.py pinned WITNESS W     print L_ε of one pinned point

Run with PYTHONPATH pointing at the checkout's ``src``.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402


def main(argv: list[str]) -> None:
    if argv[0] == "setup":
        if argv[1] == "cli":
            import gmewit.cli  # noqa: F401
        else:
            import importlib
            importlib.import_module(f"wl_{argv[1]}").setup()
        print(time.perf_counter() - START)
    elif argv[0] == "pinned":
        import wl_leps
        print(wl_leps.pinned_value(argv[1], float(argv[2])))
    else:
        raise SystemExit(f"unknown probe {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
