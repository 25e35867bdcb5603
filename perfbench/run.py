"""discarr benchmark: closed-loop CLI workloads, one client, one command at a time.

    python3 perfbench/run.py --workload census --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Each job is one `discarr` command in a
fresh interpreter (`python -m discarr.cli` with `src/` on the path), the way
a CLI user runs it, so module caches are cold on every invocation.  The
workload's jobs run in order as one pass; passes repeat until `--seconds`
have been measured (at least one pass), and each metric is the median over
passes.  Times are scaled to a reference machine speed (see `timing`).
Every job's stdout is checked (see workloads.py) and, at the
default seed, compared with the digest pinned in digests.json.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json.  `--trace 1`
runs pairs of passes, one untraced and one with every job but the
multi-process one run under tracer.py, and prints the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Progress and failures go to stderr.  The benchmark reads and
writes only inside the checkout; its working directory is removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import tracer
from workloads import WORKLOADS, CheckError, Job, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
SETUP_REPS = 5
HARD_LIMIT_S = 170.0  # the whole run, set-up included, ends well within 180 s
CALIBRATION_REF_S = 0.035  # median timing() on the reference VM
SAMPLE_EVERY_S = 0.5  # a running job is paused this often for one timing
CPUS = sorted(os.sched_getaffinity(0))


def timing(cpus: set[int]) -> float:
    """Mean seconds, over `cpus`, of a fixed loop of small Fraction sums.

    On a shared VM, co-tenants slow each virtual CPU by 20 % or more, in
    bursts lasting from a fraction of a second to minutes, in wall and CPU
    time alike.  The runner times this loop pinned to the CPU a job runs on,
    while the job is paused and when it ends (see `Runner._spawn`), and
    scales the pass's times by CALIBRATION_REF_S / (the median timing).
    That cancels the slowdown but not any change in discarr.  Like discarr,
    the loop does Fraction arithmetic on small integers.  The collector is
    off while it runs, so that the runner's own heap does not enter it.
    """
    times = []
    gc.disable()
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            for i in range(1, 1400):
                acc = Fraction(0)
                for j in range(1, 9):
                    acc += Fraction(j, i + j)
            times.append(time.perf_counter() - start)
    finally:
        os.sched_setaffinity(0, CPUS)
        gc.enable()
    return statistics.mean(times)


def _last_cpu(pid: int) -> int:
    """The CPU a process, or its zombie, last ran on (/proc/<pid>/stat field 39)."""
    with open(f"/proc/{pid}/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def _job_cpus(pid: int) -> set[int]:
    """CPUs a job last ran on: its worker processes' if it has any, else its own."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            children = [int(c) for c in fh.read().split()]
    except OSError:
        children = []
    cpus = set()
    for child in children:
        try:
            cpus.add(_last_cpu(child))
        except OSError:
            pass  # the worker has already exited
    return cpus or {_last_cpu(pid)}


@dataclass
class JobRun:
    job: Job
    wall: float
    cpu: float
    maxrss_kb: int
    out_bytes: int
    traced: bool
    work: int = 0
    summary: dict | None = None  # tracer.summarize of a traced job
    error: str | None = None


@dataclass
class PassRun:
    jobs: list[JobRun] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)  # timing() samples of its jobs

    @property
    def scale(self) -> float:
        """Factor from measured seconds to seconds at the reference speed."""
        return CALIBRATION_REF_S / statistics.median(self.calibrations)

    @property
    def work(self) -> int:
        return sum(j.work for j in self.jobs)

    @property
    def failed(self) -> int:
        return sum(1 for j in self.jobs if j.error)

    @property
    def wall(self) -> float:
        return sum(j.wall for j in self.jobs)

    @property
    def cpu(self) -> float:
        return sum(j.cpu for j in self.jobs)


class Runner:
    def __init__(self, workload: Workload, seed: int, work: Path, started: float,
                 digests: dict | None):
        self.workload = workload
        self.seed = seed
        self.digests = digests  # pinned stdout digests by job key, or None
        self.work = work
        self.started = started
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
            TMPDIR=str(work),
        )

    def _spawn(self, argv: list[str], out_path: Path, samples: list[float] | None = None
               ) -> tuple[int, float, float, int, str]:
        """Run one process to completion: exit code, wall, CPU, max RSS (KiB), stderr.

        With `samples`, the process group is stopped every SAMPLE_EVERY_S
        for one calibration timing on the CPUs the job last ran on, and
        timed once more when it ends.  The timings go to `samples`; the wall
        time excludes the pauses.
        """
        timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))
        err_path = self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.work, env=self.env, stdout=out, stderr=err,
                start_new_session=True,
            )
        deadline = start + timeout
        paused = 0.0
        killed = False
        pidfd = os.pidfd_open(proc.pid)
        try:
            while True:
                left = deadline - time.perf_counter()
                wait = left if samples is None else min(left, SAMPLE_EVERY_S)
                if select.select([pidfd], [], [], max(0.0, wait))[0]:
                    break
                if time.perf_counter() >= deadline:
                    killed = True
                    os.killpg(proc.pid, signal.SIGKILL)
                    break
                os.killpg(proc.pid, signal.SIGSTOP)
                stopped = time.perf_counter()
                samples.append(timing(_job_cpus(proc.pid)))
                os.killpg(proc.pid, signal.SIGCONT)
                paused += time.perf_counter() - stopped
            wall = time.perf_counter() - start - paused
            if samples is not None and not killed:
                samples.append(timing(_job_cpus(proc.pid)))
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the job's process group, then re-raise
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(errors="replace")
        if killed:
            stderr += f"\nkilled after {timeout:.0f} s"
        return code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, stderr

    def _discarr(self, args) -> list[str]:
        return [sys.executable, "-m", "discarr.cli", *args]

    def setup(self) -> tuple[float, float]:
        """Make the inputs SETUP_REPS times: median set-up and start-up seconds,
        each scaled to the reference speed by a timing just before it.

        One repetition is an interpreter that only imports discarr, plus the
        commands that write the workload's input files.
        """
        probe = [sys.executable, "-c", "import discarr.cli"]
        setups, startups = [], []
        first: dict[str, bytes] = {}
        for _ in range(SETUP_REPS):
            scale = CALIBRATION_REF_S / timing({_last_cpu(os.getpid())})
            code, startup, _, _, err = self._spawn(probe, self.work / "probe.txt")
            if code:
                raise SystemExit(f"cannot import discarr: {err.strip()}")
            total = startup
            for name, args in self.workload.inputs:
                path = self.work / name
                code, wall, _, _, err = self._spawn(self._discarr(args), path)
                if code:
                    raise SystemExit(f"input {name} ({' '.join(args)}) failed: {err.strip()}")
                data = path.read_bytes()
                if first.setdefault(name, data) != data:
                    raise SystemExit(f"input {name} differs between repetitions")
                total += wall
            setups.append(total * scale)
            startups.append(startup * scale)
        return statistics.median(setups), statistics.median(startups)

    def run_job(self, job: Job, ctx: dict, traced: bool,
                samples: list[float] | None = None) -> JobRun:
        out_path = self.work / (job.save_as or "stdout.txt")
        spans = self.work / "spans.json"
        argv = (
            [sys.executable, str(HERE / "tracer.py"), str(spans), *job.args]
            if traced else self._discarr(job.args)
        )
        spans.unlink(missing_ok=True)
        code, wall, cpu, rss, stderr = self._spawn(argv, out_path, samples)
        out = out_path.read_bytes()
        run = JobRun(job, wall, cpu, rss, len(out), traced)
        try:
            if code != 0:
                raise CheckError(f"exit code {code}: {stderr.strip()[-2000:]}")
            run.work = job.check(out, ctx)
            if self.digests is not None:
                digest = job.digest(out)
                if digest != self.digests.get(job.key):
                    raise CheckError(f"stdout digest {digest} differs from the pinned one")
        except (CheckError, ValueError, KeyError, IndexError, TypeError) as exc:
            run.error = f"{type(exc).__name__}: {exc}"
            print(f"FAILED {job.key}: {run.error}", file=sys.stderr)
        if traced and spans.exists():
            run.summary = tracer.summarize(json.loads(spans.read_text()))
        return run

    def run_pass(self, trace: bool) -> PassRun:
        ctx: dict = {}
        result = PassRun()
        for job in self.workload.jobs:
            traced = trace and not job.parallel
            # a traced job is not paused: the pauses would land in its spans
            samples = None if traced else result.calibrations
            result.jobs.append(self.run_job(job, ctx, traced, samples))
        kind = "traced" if trace else f"untraced (scale {result.scale:.3f})"
        print(
            f"{self.workload.name} seed {self.seed} {kind} pass: measured wall "
            f"{result.wall:.3f} s, cpu {result.cpu:.3f} s, work {result.work}, "
            f"failed {result.failed}",
            file=sys.stderr,
        )
        return result


def _median(values) -> float:
    """Median; of whole numbers, a value that occurred (counts stay exact)."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def end_to_end(passes: list[PassRun], setup_s: float) -> dict[str, float]:
    """Times are at the reference speed (see `timing`)."""
    return {
        "wall_s": _median(p.wall * p.scale for p in passes),
        "cpu_s": _median(p.cpu * p.scale for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": _median(max(j.maxrss_kb for j in p.jobs) / 1024 for p in passes),
        "work_per_cpu_s": _median(p.work / (p.cpu * p.scale) for p in passes),
    }


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 where the workload never reaches the layer."""
    return num / den if den else 0.0


def _pool_speedup(p: PassRun) -> float:
    """Wall of the serial run of a command over its multi-process run."""
    walls = {j.job.args: j.wall for j in p.jobs}
    for j in p.jobs:
        if j.job.parallel:
            args = list(j.job.args)
            args[args.index("--jobs") + 1] = "1"
            return _ratio(walls.get(tuple(args), 0.0), j.wall)
    return 0.0


# per-layer metrics read directly from the traced jobs' summed span totals
SPAN_METRICS = (
    "linalg.rref.calls", "linalg.rref.self_s",
    "linalg.nullspace.calls", "linalg.nullspace.self_s",
    "linalg.rank.calls", "linalg.rank.self_s",
    "linalg.det.calls", "linalg.det.self_s",
    "linalg.int_rank.calls", "linalg.int_rank.self_s",
    "arrangement.is_trace_generic.calls", "arrangement.is_trace_generic.self_s",
    "discriminantal.build_all.calls", "discriminantal.build_all.self_s",
    "discriminantal.build_all.forms",
    "discriminantal.census.calls", "discriminantal.census.self_s",
    "discriminantal.census.pairs", "discriminantal.census.flats",
    "discriminantal.dependent_triples.calls", "discriminantal.dependent_triples.self_s",
    "discriminantal.construct_dependent.attempts",
    "monodromy.random_section.draws", "monodromy.random_section.self_s",
    "monodromy.singular_points.calls", "monodromy.singular_points.self_s",
    "monodromy.braid_monodromy.self_s", "monodromy.braid_monodromy.letters",
    "monodromy.presentation.self_s", "monodromy.presentation.relators",
    "monodromy.nilpotent_relations.self_s",
    "braid.artin_images.calls", "braid.artin_images.self_s", "braid.artin_images.letters",
    "braid.reduce_free.self_s",
    "planar.verify_independence.self_s",
    "planar.dim_combinatorial.calls", "planar.dim_combinatorial.self_s",
    "planar.memo_entries",
    "gale.essential_normals.self_s",
    "gale.partition_search.calls", "gale.partition_search.self_s",
    "cli.self_s",
)


def per_layer(untraced: PassRun, traced: PassRun, startup_s: float) -> dict[str, float]:
    totals: dict[str, float] = {}
    for j in traced.jobs:
        for key, value in (j.summary or {}).items():
            totals[key] = totals.get(key, 0) + value

    def get(key: str) -> float:
        return totals.get(key, 0)

    values = {key: get(key) for key in SPAN_METRICS}
    traced_keys = {j.job.args for j in traced.jobs if j.traced}
    values.update({
        "linalg.nullspace.distinct_frac": _ratio(
            get("linalg.nullspace.distinct"), get("linalg.nullspace.calls")),
        "discriminantal.construct_dependent.useful_frac": _ratio(
            get("discriminantal.construct_dependent.calls"),
            get("discriminantal.construct_dependent.attempts")),
        "planar.pool_speedup": _pool_speedup(untraced),
        "cli.output_bytes": sum(j.out_bytes for j in traced.jobs),
        "process.startup_s": startup_s,
        "trace.overhead_s": sum(j.wall for j in traced.jobs if j.traced)
        - sum(j.wall for j in untraced.jobs if j.job.args in traced_keys),
    })
    return values


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[dict, int, int]:
    setup_s, startup_s = runner.setup()
    measured = time.perf_counter()
    rounds: list[tuple[PassRun, ...]] = []
    while True:
        rounds.append((runner.run_pass(False), runner.run_pass(True)) if trace
                      else (runner.run_pass(False),))
        # start another round only if it should end within the measured time
        now = time.perf_counter()
        mean = (now - measured) / len(rounds)
        if now + mean - measured > seconds or now + mean - runner.started > HARD_LIMIT_S - 10:
            break
    passes = [p for r in rounds for p in r]
    attempted = sum(len(p.jobs) for p in passes)
    failed = sum(p.failed for p in passes)
    if trace:
        layers = [per_layer(u, t, startup_s) for u, t in rounds]
        values = {key: _median(v[key] for v in layers) for key in layers[0]}
    else:
        values = end_to_end(passes, setup_s)
    return values, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        # -O strips assert statements, which turns discarr's acceptance checks into no-ops
        print("refusing to run under python -O or PYTHONOPTIMIZE", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "discarr" / "cli.py").is_file():
        print(f"no discarr sources under {ROOT / 'src'}: run from a full checkout", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so the running job is stopped and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.perf_counter()
    work = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        digests = None
        if args.seed == DEFAULT_SEED:
            digests = json.loads((HERE / "digests.json").read_text())[args.workload]
        runner = Runner(WORKLOADS[args.workload](args.seed), args.seed, work, started, digests)
        values, attempted, failed = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
