"""One benchmark operation: a single hasqoe CLI invocation in a fresh interpreter.

    python3 op.py RESULT_JSON SRC_DIR TRACE -- CLI_ARGS...
    python3 op.py --probe RESULT_JSON SRC_DIR

The op imports ``hasqoe.cli`` from SRC_DIR, notes the monotonic clock
when ``main`` is about to run (the parent subtracts its spawn time to
get the set-up time), times ``cli.main(CLI_ARGS)`` and writes both, with
the exit code and, when TRACE is 1, the per-function trace, to
RESULT_JSON.  ``--probe`` records the numeric stack the ops run on.
The op sets no BLAS threading of its own; it takes what the parent's
environment gives it (``run.measure`` says what that is and why).
"""

import signal

signal.alarm(120)  # an op that hangs is killed and counted as failed

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402


def _import_hasqoe(src_dir: str):
    sys.path.insert(0, src_dir)
    import hasqoe.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(hasqoe.__file__))) != os.path.abspath(src_dir):
        raise SystemExit(f"hasqoe imported from {hasqoe.__file__}, not from {src_dir}")
    return hasqoe.cli


def _openblas():
    """OpenBLAS's version string and thread count, read from the library numpy bundles."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            try:
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
            except AttributeError:
                continue
            config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
            return config().decode(), threads()
    return None, None


def probe(result_path: str, src_dir: str) -> None:
    _import_hasqoe(src_dir)
    import numpy
    import scipy

    config, threads = _openblas()
    info = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": config,
        "blas_threads": threads,
    }
    with open(result_path, "w") as handle:
        json.dump(info, handle)


def run(result_path: str, src_dir: str, trace: bool, argv: list[str]) -> int:
    cli = _import_hasqoe(src_dir)
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.install()
    ready = time.monotonic()
    start = time.perf_counter()
    error = None
    try:
        code = cli.main(argv)
    except BaseException as exc:  # recorded as a failed op, never retried
        code, error = None, repr(exc)
    wall = time.perf_counter() - start
    sys.stdout.flush()
    result = {"ready": ready, "wall_s": wall, "exit_code": code, "error": error}
    if tracer is not None:
        result["trace"] = {key: stat.as_dict() for key, stat in tracer.stats.items()}
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0 if code == 0 else 1


if __name__ == "__main__":
    if sys.argv[1] == "--probe":
        probe(sys.argv[2], sys.argv[3])
    else:
        separator = sys.argv.index("--")
        result_path, src_dir, trace = sys.argv[1:separator]
        sys.exit(run(result_path, src_dir, trace == "1", sys.argv[separator + 1:]))
