"""Run one codec benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload tunnel-swap-m200 --seed 1 --seconds 30 --trace 0

Run from the repository root: the codec is imported from ``src/`` there and
nowhere else.  BLAS is pinned to one thread before numpy loads.  The last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``:
end-to-end metrics with ``--trace 0``, per-layer metrics from a traced run with
``--trace 1``.  The line before it records the environment.  A traced run also
writes its spans to ``perfbench-out/`` as JSON lines.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("encoder", "decoder", "wire", "transport", "synth", "geometry", "kernel",
           "evaluate")


class CodecMissing(RuntimeError):
    pass


def import_codec(root: Path = ROOT):
    """Import sgpcodec from root/src, refusing a copy found anywhere else."""
    src = root / "src"
    if not (src / "sgpcodec" / "__init__.py").is_file():
        raise CodecMissing(f"no sgpcodec package under {src}")
    sys.path.insert(0, str(src))
    codec = importlib.import_module("sgpcodec")
    if Path(codec.__file__).resolve().parent != (src / "sgpcodec").resolve():
        raise CodecMissing(f"sgpcodec imported from {codec.__file__}, not {src}")
    for name in MODULES:
        importlib.import_module(f"sgpcodec.{name}")
    return codec


def environment() -> dict:
    """Core count, BLAS threads and library versions of this process."""
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads() or os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
    }


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, read through its own API."""
    counts = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                counts[Path(path).name] = getter()
                break
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        codec = import_codec()
    except (CodecMissing, ImportError) as exc:
        print(f"perfbench: cannot import the codec: {exc}", file=sys.stderr)
        return 2
    import workloads

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    result, run = workloads.run_workload(codec, spec, args.seed, args.seconds,
                                         bool(args.trace))
    for problem in run.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if run.tracer is not None:
        out = Path.cwd() / "perfbench-out"
        out.mkdir(exist_ok=True)
        run.tracer.write(out / f"spans-{spec.name}-{args.seed}.jsonl")
    print(json.dumps({"env": environment(), "workload": spec.name, "seed": args.seed,
                      "trace": args.trace}))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed",
                                                   "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
