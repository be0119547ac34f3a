"""Fixed per-layer rows measured in every traced run, whatever the workload.

These are the baseline rows the roadmap quotes: the cold import split, warm
CLI handler times and exit codes, each ``verify`` suite at ``--nmax 8``, and
one exact member and one full recurrence at n = 200.
"""

from __future__ import annotations

import ctypes
import glob
import os
import statistics
import subprocess
import sys
from time import perf_counter

import clibatch

VERIFY_SUITES = ("core", "quad", "marginal", "exp", "zfun")
IMPORT_REPEATS = 3


def clear_caches():
    """Empty every functools cache held at module level in altpoly."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("altpoly") and mod is not None:
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def _child_seconds(args, root, env):
    start = perf_counter()
    cp = subprocess.run([sys.executable, *args], cwd=root, env=env, capture_output=True,
                        text=True, timeout=clibatch.CHILD_TIMEOUT_S)
    return perf_counter() - start, cp


def importtime_ms(stderr: str, package: str) -> float:
    """Cumulative import time of the outermost ``package`` modules, from the
    ``-X importtime`` report. Children are printed before their parent, so
    the report is read backwards, parents first."""
    total, stack = 0, []
    for line in reversed(stderr.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, field = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        level, name = len(field) - len(field.lstrip()), field.strip()
        while stack and stack[-1] >= level:
            stack.pop()
        if name == package or name.startswith(package + "."):
            if not stack:
                total += int(cumulative)
            stack.append(level)
    return total / 1000


def import_split(root, env) -> dict:
    interp, imp, parts = [], [], {"numpy": [], "scipy": [], "altpoly": []}
    for _ in range(IMPORT_REPEATS):
        interp.append(_child_seconds(["-c", "pass"], root, env)[0] * 1000)
        imp.append(_child_seconds(["-c", "import altpoly"], root, env)[0] * 1000)
        _, cp = _child_seconds(["-X", "importtime", "-c", "import altpoly"], root, env)
        for pkg in parts:
            parts[pkg].append(importtime_ms(cp.stderr, pkg))
    out = {"cli.interp_ms": statistics.median(interp), "cli.import_ms": statistics.median(imp)}
    out.update({f"cli.import.{pkg}_ms": statistics.median(v) for pkg, v in parts.items()})
    return out


def cli_handlers(cli) -> dict:
    """Warm in-process handler time per subcommand, and how many fixed probe
    commands exit with another code than expected."""
    out, mismatches = {}, 0
    for sub, argv in clibatch.WARM_ARGV.items():
        mismatches += clibatch.main_in_process(cli, argv) != 0
        times = []
        for _ in range(3):
            start = perf_counter()
            clibatch.main_in_process(cli, argv)
            times.append((perf_counter() - start) * 1000)
        out[f"cli.handler_ms.{sub}"] = statistics.median(times)
    for argv in clibatch.USAGE_CASES:
        mismatches += clibatch.main_in_process(cli, argv) != 2
    out["cli.exit_mismatch"] = mismatches
    return out


def verify_rows(verify) -> dict:
    out = {}
    for suite in VERIFY_SUITES:
        start = perf_counter()
        summary = verify.run_suite(suite, 8)
        out[f"verify.run_suite.{suite}_ms"] = (perf_counter() - start) * 1000
        out[f"verify.checks.{suite}"] = summary["total"]
    return out


def n200_rows(polycore) -> dict:
    clear_caches()
    start = perf_counter()
    polycore.ajp_coefficients(polycore.PolyParams(0, 0, 200, 0))
    member = perf_counter() - start
    start = perf_counter()
    polycore.ajp_recurrence(0, 0, 200)
    full = perf_counter() - start
    return {"polycore.ajp_coefficients.n200_ms": member * 1000,
            "polycore.ajp_recurrence.n200_ms": full * 1000}


def blas_threads() -> int:
    """Thread count reported by the OpenBLAS builds numpy and scipy load."""
    best = 0
    for pkg in ("numpy", "scipy"):
        mod = sys.modules.get(pkg)
        if mod is None:
            continue
        libdir = os.path.join(os.path.dirname(os.path.dirname(mod.__file__)), pkg + ".libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                        "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    best = max(best, fn())
                    break
    return best
