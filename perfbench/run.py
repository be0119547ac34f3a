#!/usr/bin/env python3
"""altpoly benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
Each workload is a closed loop with one client: the next op starts when the
previous one has finished. An op is one public call plus the check of its
result against an oracle from ``oracles.py`` (stdlib only); oracle values are
computed before the op's clock starts. A run repeats one seeded pass of ops
until the passes' busy time reaches ``--seconds``, and takes each op's
latency as the mean of its repetitions.

Times are reported at reference speed. Just before and just after each op
the run times a fixed reference that does not use altpoly (a stdlib kernel
in-process, a bare interpreter start around each cold child), and divides
the op's time by the reference's mean slowness there: its time over its
time at reference speed. A core whose other hardware thread is busy runs
everything about half as fast, for stretches from a millisecond to minutes;
the scaling takes that out, and a change in the library does not touch the
reference.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics: untraced passes for half the seconds, one pass traced with span
wrappers, then the fixed rows of ``probes.py``; spans go to ``.perfbench/``.
``--workload all`` runs every workload in its own process and prints one
table. The last line of the output is always one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable

import clibatch
import probes
import workloads
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("exact-int", "exact-half", "float-rules", "cli-batch")
SETUP_PROCESSES = 7
SETUP_WINDOW = 40       # kernel runs timed at each end of a set-up child
MIN_PASSES = 2
TAIL_BEYOND = 10


@dataclass
class Record:
    kind: str
    size: int
    seconds: float
    status: str            # ok, wrong or refused
    err: float | None      # check result; None when refused
    is_float: bool
    refuses: bool
    defect: bool
    reason: str = ""
    observed: float | None = None
    slowness: float = 1.0      # the reference's, timed just before and just after

    @property
    def digits(self) -> float:
        """min(16, -log10 error) for a right answer, 0 for a wrong or refused one."""
        if self.status != "ok":
            return 0.0
        return 16.0 if self.err == 0 else min(16.0, -math.log10(self.err))


def load_library():
    """Import altpoly from the checkout; returns a namespace of its modules."""
    if not os.path.isfile(os.path.join(SRC, "altpoly", "__init__.py")):
        raise SystemExit(f"perfbench: no altpoly sources under {SRC}")
    sys.path.insert(0, SRC)
    import altpoly
    from altpoly import cli, exact, exppoly, marginal, poly, polycore, quad, verify, zfun

    return argparse.Namespace(altpoly=altpoly, cli=cli, exact=exact, exppoly=exppoly,
                              marginal=marginal, poly=poly, polycore=polycore, quad=quad,
                              verify=verify, zfun=zfun)


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


# -------------------------------------------------------------- measuring

def reference_kernel():
    """A fixed stdlib computation whose time tells the machine's speed."""
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(1, i)
    return total


def bare_interpreter():
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=child_env(), check=True,
                   timeout=clibatch.CHILD_TIMEOUT_S)


@dataclass(frozen=True)
class Reference:
    """A fixed computation that does not use altpoly, and its time at
    reference speed: on an idle core of the machine the bounds were set on
    (Intel Xeon, family 6 model 207, two KVM vCPUs)."""

    run: Callable[[], object]
    seconds: float

    def slowness(self) -> float:
        start = perf_counter()
        self.run()
        return (perf_counter() - start) / self.seconds

    def window(self, repeats: int) -> tuple[float, float]:
        """(mean slowness, seconds spent) over ``repeats`` back-to-back runs."""
        start = perf_counter()
        for _ in range(repeats):
            self.run()
        spent = perf_counter() - start
        return spent / (repeats * self.seconds), spent


KERNEL = Reference(reference_kernel, 72e-6)
INTERPRETER = Reference(bare_interpreter, 0.045)


@contextlib.contextmanager
def one_cpu():
    """Keep this process, and the children it starts, on one CPU, so that a
    reference timed in a child runs where the measured children run."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def measure(ops, tracer=None, reference=KERNEL):
    """Run one pass of ops back to back; returns its records and busy time."""
    records, busy, pending = [], 0.0, None
    for op in ops:
        while op is not None:
            expected = op.expect()
            if tracer is not None:
                tracer.op_id = len(records)
            status, err, reason, result = "ok", None, "", None
            before = reference.slowness()
            start = perf_counter()
            try:
                result = op.call()
            except Exception as exc:     # any failure of the call is a refusal
                status, reason = "refused", type(exc).__name__
            else:
                try:
                    err = op.check(result, expected)
                except Exception as exc:   # unreadable output is a wrong answer
                    err, reason = workloads.WRONG, type(exc).__name__
                if not err <= op.tol:
                    status = "wrong"
            spent = perf_counter() - start
            slowness = (before + reference.slowness()) / 2
            busy += spent
            observed = op.observe(result) if op.observe and status != "refused" else None
            records.append(Record(op.kind, op.size, spent, status, err, op.is_float,
                                  op.refuses, op.defect, reason, observed, slowness))
            op = op.follow(result) if status != "refused" and op.follow else None
    return records, busy


def measure_passes(workload, lib, seed, seconds, min_passes=MIN_PASSES):
    """Repeat the seeded pass until the passes' busy time reaches ``seconds``.
    Library caches are emptied and the garbage collector is run before each
    pass and kept off during it, so every pass does the same work."""
    passes, total = [], 0.0
    reference, placement = conditions(workload)
    with placement:
        while total < seconds or len(passes) < min_passes:
            probes.clear_caches()
            gc.collect()
            gc.disable()
            try:
                records, busy = measure(make_stream(workload, lib, seed), reference=reference)
            finally:
                gc.enable()
            passes.append((records, busy))
            total += busy
    return passes


def conditions(workload):
    """The reference a workload is timed against and where it runs: the CLI
    workload's ops are cold children, so its reference is a cold child too,
    on the same CPU."""
    if workload == "cli-batch":
        return INTERPRETER, one_cpu()
    return KERNEL, contextlib.nullcontext()


def make_stream(workload, lib, seed):
    if workload == "cli-batch":
        return clibatch.stream(clibatch.Runner(ROOT, child_env()), seed)
    return workloads.stream(workload, lib, seed)


def warm(workload, lib):
    """One call per op kind: what makes the workload ready."""
    if workload == "cli-batch":
        clibatch.warm(lib.cli)
        return
    for op in workloads.warmups(workload, lib):
        try:
            result = op.call()
        except Exception:     # a kind the library refuses is still warmed up
            continue
        if op.follow is not None:
            try:
                op.follow(result).call()
            except Exception:
                pass


def setup_seconds(workload):
    """Median over fresh processes of the wall time to import altpoly and
    warm up, at reference speed. Each child times the reference kernel just
    before the import and just after the warm-up; its wall time, less those
    windows, is divided by their mean slowness. The reference runs inside
    the child because the child's own speed drifts over its half second."""
    times = []
    with one_cpu():
        for _ in range(SETUP_PROCESSES):
            start = perf_counter()
            cp = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                                 workload, "--setup-child"], cwd=ROOT, env=child_env(),
                                check=True, timeout=clibatch.CHILD_TIMEOUT_S,
                                capture_output=True, text=True)
            spent = perf_counter() - start
            windows = json.loads(cp.stdout.strip().splitlines()[-1])
            slowness = statistics.fmean(w[0] for w in windows)
            times.append((spent - math.fsum(w[1] for w in windows)) / slowness)
    return statistics.median(times)


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli-batch" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it, or the maximum if there are fewer."""
    lat = sorted(latencies)
    idx = max(0, len(lat) - 1 - TAIL_BEYOND)
    return lat[idx], 100.0 * (idx + 1) / len(lat), len(lat) - 1 - idx


def slowness(passes):
    """The reference's mean slowness in the run, printed beside the metrics."""
    return statistics.fmean(r.slowness for recs, _ in passes for r in recs)


def op_latencies(passes):
    """Each op's latency at reference speed: the mean over its repetitions,
    one per pass, of its time over the slowness timed around it. The mean,
    not the least: a repetition runs at a mix of fast and slow machine time,
    and only the mean follows that mix as the reference does."""
    return [math.fsum(r.seconds / r.slowness for r in reps) / len(reps)
            for reps in zip(*(recs for recs, _ in passes))]


def rate(passes):
    """Ops per second at reference speed."""
    latencies = op_latencies(passes)
    return len(latencies) / math.fsum(latencies)


def end_to_end(passes):
    """End-to-end metrics but set-up time and memory."""
    records = [r for recs, _ in passes for r in recs]
    n = len(records)
    refused = sum(r.status == "refused" for r in records)
    wrong = sum(r.status == "wrong" for r in records)
    scored = [r for r in records if r.is_float] or records
    latencies = op_latencies(passes)
    return {
        "ops_per_s": rate(passes),
        "p50_ms": statistics.median(latencies) * 1000,
        "tail_ms": tail(latencies)[0] * 1000,
        "pass_share": (n - refused - wrong) / n,
        "not_wrong_share": (n - wrong) / n,
        "accuracy_digits": statistics.fmean(r.digits for r in scored),
    }


def kind_report(records, out):
    """Per-op-kind breakdown, one line per kind."""
    kinds = sorted({r.kind for r in records})
    out.write(f"{'kind':<22}{'ops':>6}{'refused':>9}{'wrong':>7}{'p50_ms':>10}"
              f"{'digits':>8}  known-defect  reasons\n")
    for kind in kinds:
        rs = [r for r in records if r.kind == kind]
        reasons = {}
        for r in rs:
            if r.reason:
                reasons[r.reason] = reasons.get(r.reason, 0) + 1
        out.write(f"{kind:<22}{len(rs):>6}{sum(r.status == 'refused' for r in rs):>9}"
                  f"{sum(r.status == 'wrong' for r in rs):>7}"
                  f"{statistics.median(r.seconds for r in rs) * 1000:>10.3f}"
                  f"{statistics.fmean(r.digits for r in rs):>8.2f}"
                  f"  {sum(r.defect for r in rs):>12}  "
                  f"{json.dumps(reasons, sort_keys=True)}\n")


# -------------------------------------------------------------- per layer

def self_ms(totals, *names):
    return sum(totals[name][1] for name in names) * 1000


def layer_metrics(tracer, records, totals):
    def kind_stats(kind):
        rs = [r for r in records if r.kind == kind]
        errs = [r.err for r in rs if r.err is not None and math.isfinite(r.err)]
        return (sum(r.status == "refused" for r in rs), sum(r.status == "wrong" for r in rs),
                max(errs, default=0.0))

    def calls(name):
        return totals[name][0]

    def share(part, whole):
        return part / whole if whole else 0.0

    zeros_refused, zeros_wrong, zeros_err = kind_stats("e_zeros")
    semi_refused, semi_wrong, _ = kind_stats("semi_axis_rule")
    _, project_wrong, project_err = kind_stats("project")
    _, _, rule_err = kind_stats("gauss_jacobi_rule")
    conds = [r.observed for r in records if r.kind == "z_collocation_fit" and r.observed]
    return {
        "polycore.ajp_coefficients.calls": calls("polycore.ajp_coefficients"),
        "polycore.ajp_coefficients.self_ms": self_ms(totals, "polycore.ajp_coefficients"),
        "polycore.ajp_coefficients.repeat_share":
            share(tracer.ajp_repeats, calls("polycore.ajp_coefficients")),
        "polycore.ajp_recurrence.self_ms": self_ms(totals, "polycore.ajp_recurrence"),
        "polycore.ajp_norm_h.self_ms": self_ms(totals, "polycore.ajp_norm_h"),
        "polycore.residuals.self_ms": self_ms(
            totals, "polycore.ode_residual_poly", "polycore.diff_formula_residual",
            "polycore.dd_raising_residual", "polycore.dd_lowering_residual"),
        "polycore.shifted_jacobi.self_ms": self_ms(
            totals, "polycore.shifted_jacobi", "polycore.shifted_jacobi_coefficients"),
        "exact.exact_gamma2_ratio.calls": calls("exact.exact_gamma2_ratio"),
        "exact.exact_gamma2_ratio.self_ms": self_ms(totals, "exact.exact_gamma2_ratio"),
        "exact.exact_gamma2_ratio.pirational_share":
            share(tracer.gamma_pirational, calls("exact.exact_gamma2_ratio")),
        "quad.beta_moment.calls": calls("quad.beta_moment"),
        "quad.beta_moment.self_ms": self_ms(totals, "quad.beta_moment"),
        "quad.weighted_inner_product.calls": calls("quad.weighted_inner_product"),
        "quad.weighted_inner_product.self_ms": self_ms(totals, "quad.weighted_inner_product"),
        "quad.moments_per_inner":
            share(calls("quad.beta_moment"), calls("quad.weighted_inner_product")),
        "poly.mul.calls": calls("poly.mul"),
        "poly.mul.self_ms": self_ms(totals, "poly.mul"),
        "poly.horner.calls": calls("poly.horner"),
        "poly.horner.self_ms": self_ms(totals, "poly.horner"),
        "marginal.a_recurrence.self_ms": self_ms(totals, "marginal.a_recurrence"),
        "marginal.t_recurrence.self_ms": self_ms(totals, "marginal.t_recurrence"),
        "marginal.t_coefficients.self_ms": self_ms(totals, "marginal.t_coefficients"),
        "quad.gauss_jacobi_rule.calls": calls("quad.gauss_jacobi_rule"),
        "quad.gauss_jacobi_rule.self_ms": self_ms(totals, "quad.gauss_jacobi_rule"),
        "quad.gauss_jacobi_rule.max_rel_err": rule_err,
        "quad.integrate_unit.self_ms": self_ms(totals, "quad.integrate_unit"),
        "exppoly.e_zeros.calls": calls("exppoly.e_zeros"),
        "exppoly.e_zeros.self_ms": self_ms(totals, "exppoly.e_zeros"),
        "exppoly.e_zeros.refused": zeros_refused,
        "exppoly.e_zeros.wrong": zeros_wrong,
        "exppoly.e_zeros.max_node_err": zeros_err,
        "exppoly.semi_axis_rule.self_ms": self_ms(totals, "exppoly.semi_axis_rule"),
        "exppoly.semi_axis_rule.refused": semi_refused,
        "exppoly.semi_axis_rule.wrong": semi_wrong,
        "exppoly.project.self_ms": self_ms(totals, "exppoly.project"),
        "exppoly.project.wrong": project_wrong,
        "exppoly.project.max_err": project_err,
        "zfun.z_build.calls": calls("zfun.z_build"),
        "zfun.z_build.self_ms": self_ms(totals, "zfun.z_build"),
        "zfun.z_build.refused": totals["zfun.z_build"][2],
        "zfun.lambda_max.calls_per_build":
            share(calls("zfun.lambda_max"), calls("zfun.z_build")),
        "zfun.z_collocation_fit.self_ms": self_ms(totals, "zfun.z_collocation_fit"),
        "zfun.z_collocation_fit.cond_max": max(conds, default=0.0),
    }


def traced_run(workload, lib, seed, seconds, out):
    """Untraced passes for half the seconds, then one traced pass; per-layer
    figures are per pass."""
    warm(workload, lib)
    plain = measure_passes(workload, lib, seed, seconds / 2, min_passes=1)
    probes.clear_caches()
    gc.collect()
    tracer = Tracer()
    reference, placement = conditions(workload)
    tracer.install()
    try:
        with placement:
            traced, _ = measure(make_stream(workload, lib, seed), tracer, reference)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    kind_report(traced, out)

    metrics = layer_metrics(tracer, traced, totals)
    metrics.update(probes.n200_rows(lib.polycore))
    metrics.update(probes.verify_rows(lib.verify))
    metrics.update(probes.import_split(ROOT, child_env()))
    metrics.update(probes.cli_handlers(lib.cli))
    # both rates at reference speed, so a change of machine speed between
    # the untraced and the traced passes does not read as tracing overhead
    untraced_busy = statistics.median(math.fsum(r.seconds / r.slowness for r in recs)
                                      for recs, _ in plain)
    traced_busy = math.fsum(r.seconds / r.slowness for r in traced)
    untraced_rate, traced_rate = len(traced) / untraced_busy, len(traced) / traced_busy
    metrics.update({
        "workload.parent_refuse_share": sum(r.refuses for r in traced) / len(traced),
        "workload.blas_threads": probes.blas_threads(),
        "trace.ops_per_s_untraced": untraced_rate,
        "trace.ops_per_s_traced": traced_rate,
        "trace.overhead_share": 1 - traced_rate / untraced_rate,
        "trace.spans": len(tracer.spans),
    })
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{workload}-{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.records():
            fh.write(json.dumps(span) + "\n")
    out.write(f"spans written to {os.path.relpath(path, ROOT)}\n")
    return [r for recs, _ in plain for r in recs] + traced, metrics


def missing_kinds(workload, records):
    """Op kinds the workload names but did not attempt: a check that ran
    nothing is not a pass."""
    named = clibatch.KINDS if workload == "cli-batch" else workloads.KINDS[workload]
    return sorted(set(named) - {r.kind for r in records})


def declared(section, values):
    """The metrics BENCHMARK.json declares in ``section``, as name -> {value,
    unit}; every one of them must have been measured."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    missing = set(units) - set(values)
    if missing:
        raise SystemExit(f"perfbench: {section} metrics not measured: {sorted(missing)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


# ------------------------------------------------------------------ main

def run_workload(args):
    out = sys.stdout
    lib = load_library()
    if args.trace:
        records, values = traced_run(args.workload, lib, args.seed, args.seconds, out)
        metrics = declared("per_layer", values)
    else:
        warm(args.workload, lib)
        passes = measure_passes(args.workload, lib, args.seed, args.seconds)
        records = [r for recs, _ in passes for r in recs]
        values = dict(end_to_end(passes), peak_rss_mb=peak_rss_mb(args.workload),
                      setup_s=setup_seconds(args.workload))
        kind_report(records, out)
        _, pct, beyond = tail(op_latencies(passes))
        out.write(f"{len(passes)} passes of {len(passes[0][0])} ops; tail_ms is p{pct:.1f} "
                  f"with {beyond} ops beyond it; the reference ran {slowness(passes):.4f} "
                  f"times slower than at reference speed\n")
        metrics = declared("end_to_end", values)
        for name, m in metrics.items():
            out.write(f"{name:<18}{m['value']:>16.6g} {m['unit']}\n")
    # An op at a known-defect size that refuses or answers wrongly behaves
    # as the library did when the benchmark was written: it lowers
    # pass_share and not_wrong_share but is not a failure of the run.
    known = sum(r.status != "ok" and r.defect for r in records)
    failed = [r for r in records if r.status != "ok" and not r.defect]
    out.write(f"{known} of {len(records)} ops refused or wrong at known-defect sizes\n")
    for r in failed:
        out.write(f"FAILED outside the known defects: {r.kind} size {r.size} {r.status} "
                  f"{r.reason}\n")
    missing = missing_kinds(args.workload, records)
    if missing:
        out.write(f"FAILED: op kinds never attempted: {', '.join(missing)}\n")
    print(json.dumps({"correct": not failed and not missing, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))


def run_all(args):
    """Every workload in its own process, then one table of their metrics."""
    results = {}
    for workload in WORKLOADS:
        cp = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                             workload, "--seed", str(args.seed), "--seconds",
                             str(args.seconds), "--trace", str(args.trace)],
                            cwd=ROOT, capture_output=True, text=True, check=True)
        sys.stdout.write(f"== {workload}\n{cp.stdout}")
        results[workload] = json.loads(cp.stdout.strip().splitlines()[-1])
    names = results[WORKLOADS[0]]["metrics"]
    sys.stdout.write(f"\n{'metric':<44}{'unit':>7}" + "".join(f"{w:>14}" for w in WORKLOADS)
                     + "\n")
    for name, first in names.items():
        row = "".join(f"{results[w]['metrics'][name]['value']:>14.6g}" for w in WORKLOADS)
        sys.stdout.write(f"{name:<44}{first['unit']:>7}{row}\n")
    print(json.dumps(results))


def setup_child(workload):
    """Import and warm up between two reference windows; prints the windows."""
    before = KERNEL.window(SETUP_WINDOW)
    lib = load_library()
    warm(workload, lib)
    print(json.dumps([before, KERNEL.window(SETUP_WINDOW)]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        setup_child(args.workload)
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
