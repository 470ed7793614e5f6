"""cfgctrl benchmark: closed-loop workloads, end-to-end metrics and a traced run per layer.

Run from the repository root (numpy is the only requirement):

    python3 bench/run.py --workload cli_reference --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1        # every workload in turn, one process each

One client runs operations back to back in this process (a closed loop), with
CFGCTRL_THREADS cleared so batches run on one worker. ``--trace 0`` times whole
cycles of operations and reports the end-to-end metrics; ``--trace 1`` runs a
fixed number of cycles untraced, then the same operations with spans
installed, and reports the per-layer metrics.

A run's length is fixed in work, not in time: ``--seconds`` sets the number of
cycles through each workload's nominal cycle time on the reference machine
(2 cores). Both commits of a comparison then run the same operations, so the
tail percentile, which depends on the sample count, means the same on both.
Every operation's output is checked. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; a fuller
record (machine, failures, artifact digest) goes to .bench_out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from pace import PacedClock, paced

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
BENCH = Path(__file__).resolve().parent
E2E_UNITS = {"setup_s": "s", "op_s.p50": "s", "op_s.tail": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_LAUNCHES = 15

# Runs in a fresh interpreter: import, then the workload's config load and system build,
# then the machine's pace in the same interpreter (bench/pace.py; its first kernels run cold).
SETUP_SNIPPET = """\
from time import perf_counter
t0 = perf_counter()
import numpy
t1 = perf_counter()
import cfgctrl
t2 = perf_counter()
{body}t3 = perf_counter()
import json
from pace import machine_pace
pace = machine_pace(repeats=5)
print(json.dumps({{"numpy_s": t1 - t0, "cfgctrl_s": t2 - t0, "setup_s": t3 - t0, "pace_s": pace}}))
"""


def machine_info() -> dict:
    import numpy

    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                 timeout=30).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_rev": rev,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "cfgctrl_threads": os.environ.get("CFGCTRL_THREADS"),
    }


def setup_times(body: str, launches: int, warm: bool) -> list[dict]:
    """Set-up timings from fresh interpreters; a warm launch first compiles bytecode.

    Each launch also carries ``paced_setup_s``, its ``setup_s`` scaled by the
    machine's pace measured in the same interpreter right after it.
    """
    path = [str(SOURCE), str(BENCH), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    env.pop("CFGCTRL_THREADS", None)
    code = SETUP_SNIPPET.format(body=body)
    times = []
    for i in range(launches + int(warm)):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up launch failed: {proc.stderr.strip()[-500:]}")
        if i >= int(warm):
            launch = json.loads(proc.stdout.strip().splitlines()[-1])
            launch["paced_setup_s"] = paced(launch["setup_s"], launch["pace_s"], launch["pace_s"])
            times.append(launch)
    return times


def tail(times: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it (nearest rank), and its label."""
    n = len(times)
    ordered = sorted(times)
    if n <= 10:
        return ordered[-1], f"max, n={n} (too few samples for ten beyond)"
    q = math.floor(100 * (n - 10) / n)
    rank = math.ceil(q * n / 100)
    return ordered[rank - 1], f"p{q}, n={n}, {n - rank} beyond"


def steps_per_second(specs: list[tuple], times: list[float], steps: list[int]) -> float:
    """Steps of one cycle over the sum of the median times of its operations.

    Each operation of the cycle (kind and argument) takes the median of its
    own repeats, so a stall or a slow spell of the machine during a few
    operations moves the rate no more than it moves ``op_s.p50``; a total
    over total time would carry it whole.
    """
    by_spec: dict[tuple, tuple[list[float], list[int]]] = {}
    for spec, t, n in zip(specs, times, steps):
        spec_times, spec_steps = by_spec.setdefault(spec, ([], []))
        spec_times.append(t)
        spec_steps.append(n)
    return (sum(statistics.median(n) for _, n in by_spec.values())
            / sum(statistics.median(t) for t, _ in by_spec.values()))


class Loop:
    """Runs, times and checks operations of one workload."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failures: list[str] = []
        self.times: list[float] = []      # paced: scaled to the reference speed
        self.raw_times: list[float] = []  # as measured
        self.specs: list[tuple] = []
        self.op_steps: list[int] = []
        self.steps = 0
        self.files = 0
        self.nbytes = 0
        self.defects: dict[str, int] = {}

    def timings(self) -> list[float]:
        """Operation times so far; raises if every timed operation failed."""
        if not self.times:
            raise RuntimeError(f"every timed operation failed; last failure: {self.failures[-1]}")
        return self.times

    def restart_measures(self) -> None:
        """Forget timings and work counts so far; attempts and failures stay counted."""
        self.times, self.raw_times, self.specs, self.op_steps = [], [], [], []
        self.steps = self.files = self.nbytes = 0

    def op(self, spec, index: int):
        """One operation; returns its Outcome, or None if it failed."""
        from workloads import CheckFailed

        self.attempted += 1
        prepared = self.wl.prepare(spec, index)
        try:
            clock = PacedClock(self.wl.pace_kernel)
            executed = self.wl.execute(prepared, clock)
            outcome = self.wl.check(prepared, executed)
        except CheckFailed as exc:
            self.failures.append(f"{spec[0]} #{index}: {exc}")
            return None
        except Exception as exc:  # an operation that raises is a failure; the run goes on
            self.failures.append(f"{spec[0]} #{index}: raised {type(exc).__name__}: {exc}")
            return None
        finally:
            self.wl.cleanup(prepared)
        self.times.append(clock.paced)
        self.raw_times.append(clock.raw)
        self.specs.append(spec)
        self.op_steps.append(outcome.steps)
        self.steps += outcome.steps
        self.files += outcome.files
        self.nbytes += outcome.nbytes
        for defect in outcome.defects:
            self.defects[defect] = self.defects.get(defect, 0) + 1
        return outcome

    def cycles(self, start_index: int, count: int) -> list[str]:
        """``count`` whole cycles from operation ``start_index``.

        Returns one digest per cycle over the names and bytes of everything its
        operations produced.
        """
        digests = []
        index = start_index
        for _ in range(count):
            h = hashlib.sha256()
            for spec in self.wl.cycle:
                outcome = self.op(spec, index)
                index += 1
                h.update(f"{spec}#{index}\n".encode())
                for name, blob in (outcome.blobs.items() if outcome else [("failed", b"")]):
                    h.update(f"{name} {hashlib.sha256(blob).hexdigest()}\n".encode())
            digests.append(h.hexdigest())
        return digests


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path, tiny: bool = False):
    """Run one workload in this process; returns (result line, full record)."""
    from workloads import WORKLOADS
    from spans import LAYER_UNITS, Tracer

    work = out_dir / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer()
    try:
        if trace:
            with tracer:
                wl = WORKLOADS[name](ROOT, seed, work, tiny)
        else:
            wl = WORKLOADS[name](ROOT, seed, work, tiny)
        setups = setup_times(wl.setup_body, 1 if tiny else SETUP_LAUNCHES, warm=not tiny)
        loop = Loop(wl)
        for i in range(wl.warmup):
            loop.op(wl.cycle[i % len(wl.cycle)], i)
        loop.restart_measures()
        untimed_ops = loop.attempted
        record = {"workload": name, "seed": seed, "trace": int(trace), "tiny": tiny}
        if trace:
            plain = loop.cycles(wl.warmup, count=wl.trace_cycles)
            plain_times = loop.timings()
            loop.restart_measures()
            with tracer:
                traced = loop.cycles(wl.warmup, count=wl.trace_cycles)
            if traced != plain:
                loop.failures.append("traced operations produced different outputs than untraced ones")
            traced_p50 = statistics.median(loop.timings())
            overhead = traced_p50 - statistics.median(plain_times)
            imports = {key: statistics.median(t[key] for t in setups) for key in ("cfgctrl_s", "numpy_s")}
            values = tracer.layer_metrics(imports, loop.files, loop.nbytes, overhead)
            units = LAYER_UNITS
            record.update(digest=plain[0], cycles=wl.trace_cycles, traced_op_s_p50=traced_p50,
                          untraced_op_s_p50=statistics.median(plain_times))
        else:
            digests = loop.cycles(wl.warmup, count=max(1, round(seconds / wl.cycle_s)))
            times = loop.timings()
            op_time = sum(loop.raw_times)
            tail_value, tail_label = tail(times)
            values = {
                "setup_s": statistics.median(t["paced_setup_s"] for t in setups),
                "op_s.p50": statistics.median(times),
                "op_s.tail": tail_value,
                "steps_per_s": steps_per_second(loop.specs, times, loop.op_steps),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = E2E_UNITS
            by_kind = {}
            for spec, t in zip(loop.specs, loop.times):
                by_kind.setdefault(spec[0], []).append(t)
            unpaced = {
                "setup_s": statistics.median(t["setup_s"] for t in setups),
                "op_s.p50": statistics.median(loop.raw_times),
                "op_s.tail": tail(loop.raw_times)[0],
                "steps_per_s": steps_per_second(loop.specs, loop.raw_times, loop.op_steps),
            }
            record.update(digest=digests[0], cycles=len(digests), tail=tail_label, op_time_s=op_time,
                          steps=loop.steps, p50_by_kind={k: statistics.median(v) for k, v in by_kind.items()},
                          unpaced=unpaced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(loop.failures)
    result = {
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    record.update(result=result, failed_frac=failed / loop.attempted, untimed_ops=untimed_ops,
                  failures=loop.failures, known_defects=loop.defects, setup_launches=setups,
                  machine=machine_info())
    return result, record


def print_report(result: dict, record: dict) -> None:
    m = record["machine"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"cycles {record['cycles']}  digest {record['digest'][:16]}")
    print(f"machine  git {m['git_rev'][:12]}  nproc {m['nproc']}  python {m['python']}  numpy {m['numpy']}  "
          f"CFGCTRL_THREADS {m['cfgctrl_threads'] or 'unset'}  "
          f"BLAS {' '.join(f'{k}={v}' for k, v in m['blas_threads'].items() if v) or 'unset'}")
    for name, metric in result["metrics"].items():
        note = f"  ({record['tail']})" if name == "op_s.tail" else ""
        if name in record.get("unpaced", {}):
            note = f"  unpaced {record['unpaced'][name]:.6g}{note}"
        value = metric["value"]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:<44} {shown} {metric['unit']}{note}")
    print(f"  {'failed_frac':<44} {record['failed_frac']:>16.6g} ratio  "
          f"({result['failed']} of {result['attempted']} operations)")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    for defect, count in record["known_defects"].items():
        print(f"  KNOWN DEFECT in {count} operations: {defect}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="cli_reference, batch_fields, synth_lab or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "cfgctrl" / "__init__.py").is_file() or not (ROOT / "configs" / "reference.json").is_file():
        print(f"error: no cfgctrl source tree (src/cfgctrl, configs/reference.json) under {ROOT}", file=sys.stderr)
        return 2
    os.environ.pop("CFGCTRL_THREADS", None)
    sys.path[:0] = [str(SOURCE), str(BENCH)]
    from workloads import WORKLOADS

    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")

    out_dir = ROOT / ".bench_out"
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print_report(result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
