"""robusthmm benchmark: one workload, closed loop, one job at a time.

Usage (from the repository root)::

    python3 bench/run.py --workload tree-control --seed 1 --seconds 36 --trace 0

Each job is a generated JSON config passed to ``robusthmm.cli.main(argv)``,
the entry the console script calls, in this process. Set-up imports the
package from ``src/``, writes the workload's configs from ``--seed`` and runs
one small warm-up job; it is repeated in fresh child processes and reported
as a median. The measured loop then cycles through the job list for
``--seconds`` (at least one whole pass; a job is started only when it is
expected to end in time). Each job runs between slices of a fixed
calibration kernel (``calibrate.py``), and the run reports ``wall_cal``: the
sum over jobs of the median of job seconds divided by the kernel's median
slice time around that job, i.e. a pass of the job list in calibration
units. The host's speed varies by up to 1.5x over minutes, which that ratio
cancels; the uncalibrated pass time is printed as well. The run pins itself
to one CPU, so kernel and job always share one. Each job's files are
written back to disk after it, outside the timed region, so every timed job
starts from the same filesystem state.

Every job's artifacts are checked outside the timed region: semantic checks
on its first run, a sha256 of its artifacts against the stored reference for
the seed (when one is stored), and byte-identity with its first run after
that. A job fails when its exit code is not 0 or a check fails.

``--trace 1`` alternates untraced and traced passes of the job list; traced
passes wrap the package's public functions from outside (see ``spans.py``)
and report per-layer busy times and counts, plus the tracing overhead as
traced minus untraced pass time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit, per-job timings and the
environment.
"""

import os

# Pin native thread pools before anything imports numpy, so the load is one
# process with at most the CLI's own --threads worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["ROBUSTHMM_THREADS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCES = BENCH / "references.json"
WORKLOADS = ("evolve-long", "tree-control", "verify")
SETUP_SAMPLES = 15
PROBE_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def clear(path: Path) -> None:
    """Delete ``path`` and flush the deletion now, so the filesystem's
    deferred work for it (the root mount discards freed blocks) does not
    land inside a later timed job."""
    shutil.rmtree(path, ignore_errors=True)
    os.sync()


def import_package():
    """Import ``robusthmm`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "robusthmm" / "__init__.py").is_file():
        raise BenchError(f"no robusthmm sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import robusthmm
    from robusthmm import cli
    if Path(robusthmm.__file__).resolve().parent != SRC / "robusthmm":
        raise BenchError(f"imported robusthmm from {robusthmm.__file__}")
    return cli


def setup(workload: str, seed: int, work: Path):
    """Import, generate configs and run the warm-up job; returns the CLI
    module, the jobs with their config paths, and the seconds taken."""
    start = perf_counter()
    cli = import_package()
    import workloads
    warm, jobs = workloads.make_jobs(workload, seed)
    paths = [workloads.write_config(job, str(work / f"config_{i:02d}.json"))
             for i, job in enumerate(jobs)]
    warm_path = workloads.write_config(warm, str(work / "config_warmup.json"))
    code = cli.main(warm.argv(warm_path, str(work / "warmup")))
    if code != 0:
        raise BenchError(f"warm-up job exited with {code}")
    return cli, list(zip(jobs, paths)), perf_counter() - start


def probe_setup(args) -> list[float]:
    """Set-up times of fresh child processes, one after another."""
    times = []
    for k in range(1, SETUP_SAMPLES):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-probe",
               str(k)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def filesystem(path: Path) -> str:
    """Type of the filesystem holding ``path``, from the mount table."""
    target, best, fstype = str(path.resolve()), "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1].replace("\\040", " ")
                inside = (target == mount
                          or target.startswith(mount.rstrip("/") + "/"))
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


class Workload:
    """The job list of one workload with its per-job results and checks."""

    def __init__(self, cli, name: str, seed: int, jobs, work: Path):
        self.cli = cli
        self.jobs = jobs
        self.work = work
        self.samples = [[] for _ in jobs]  # seconds of each timed run
        self.units = [[] for _ in jobs]  # calibration unit around each run
        self.digests = [None] * len(jobs)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        try:
            refs = json.loads(REFERENCES.read_text())
        except FileNotFoundError:
            refs = {}
        self.reference = refs.get(name, {}).get(str(seed))

    def run(self, i: int) -> float:
        """Run job ``i`` once into a fresh directory, then check it; only
        ``cli.main`` is timed."""
        gc.collect()
        took, code, out = self.timed(i)
        self.finish(i, code, out)
        return took

    def run_calibrated(self, i: int) -> tuple[float, float]:
        """Run and check job ``i`` between calibration slices; returns its
        seconds and the calibration unit around it."""
        gc.collect()
        before = calibrate.slices(str(self.work / "calibration"))
        took, code, out = self.timed(i)
        after = calibrate.slices(str(self.work / "calibration"))
        self.finish(i, code, out)
        return took, statistics.median(before + after)

    def timed(self, i: int):
        job, config = self.jobs[i]
        out = str(self.work / "runs" / f"{self.attempted:04d}_job{i:02d}")
        start = perf_counter()
        try:
            code = self.cli.main(job.argv(config, out))
        except Exception:
            traceback.print_exc()
            code = None
        return perf_counter() - start, code, out

    def finish(self, i: int, code, out: str) -> None:
        job = self.jobs[i][0]
        self.attempted += 1
        problems = self.check(i, code, out)
        if problems:
            self.failed += 1
            self.problems.append(f"job {i} ({job.label}): "
                                 + "; ".join(problems[:3]))
        # write back this job's files now, so the kernel's deferred work for
        # them does not land inside the next timed job
        os.sync()

    def check(self, i: int, code, out: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        digest = checks.artifact_digest(out)
        if self.digests[i] is not None:
            if digest != self.digests[i]:
                return ["artifacts differ from the job's first run"]
            return []
        self.digests[i] = digest
        job = self.jobs[i][0]
        problems = checks.output_problems(job.command, job.config, out)
        if self.reference is not None and self.reference[i] != digest:
            problems.append("artifact digest differs from the reference")
        return problems

    def run_pass(self) -> float:
        return sum(self.run(i) for i in range(len(self.jobs)))


def measure(wl: Workload, seconds: float) -> float:
    """Cycle through the jobs, each between calibration slices, for
    ``seconds``: at least one whole pass, then a job is started only when
    its median iteration so far (slices and checks included) ends before
    the deadline. Returns ``wall_cal``, the sum over jobs of the median of
    job seconds / calibration unit."""
    deadline = perf_counter() + seconds
    n, i = len(wl.jobs), 0
    spent = [[] for _ in wl.jobs]
    while i < n or perf_counter() + statistics.median(spent[i % n]) < deadline:
        start = perf_counter()
        took, unit = wl.run_calibrated(i % n)
        wl.samples[i % n].append(took)
        wl.units[i % n].append(unit)
        spent[i % n].append(perf_counter() - start)
        i += 1
    return sum(statistics.median(t / u for t, u in zip(ts, us))
               for ts, us in zip(wl.samples, wl.units))


def measure_traced(wl: Workload, seconds: float, spans_path: Path):
    """Alternate untraced and traced passes until ``seconds`` pass (at
    least one of each); per-layer times are medians over traced passes."""
    import spans
    spans_path.unlink(missing_ok=True)
    deadline = perf_counter() + seconds
    plain, traced, layers = [], [], []
    while not (plain and traced) or perf_counter() < deadline:
        if len(plain) <= len(traced):
            plain.append(wl.run_pass())
            continue
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced.append(wl.run_pass())
        finally:
            tracer.remove()
        layers.append(tracer.layer_metrics())
        tracer.write_spans(str(spans_path), f"traced-{len(traced)}")
    metrics = {}
    for key in layers[0]:
        values = [m[key] for m in layers]
        if key.endswith("_s"):
            metrics[key] = statistics.median(values)
        else:
            if any(v != values[0] for v in values):
                wl.problems.append(f"{key} differs between traced passes: "
                                   f"{values}")
            metrics[key] = values[0]
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain))
    return metrics, plain, traced


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def blas_core() -> str:
    """Kernel family OpenBLAS picked at run time; reference digests hold
    for one family, since float results may differ in the last bit."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln}
        for lib in sorted(libs):
            dll = ctypes.CDLL(lib)
            for name in ("scipy_openblas_get_corename64_",
                         "scipy_openblas_get_corename",
                         "openblas_get_corename"):
                fn = getattr(dll, name, None)
                if fn is not None:
                    fn.restype = ctypes.c_char_p
                    return fn().decode()
    except OSError:
        pass
    return "unknown"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=int, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cpus = os.sched_getaffinity(0)
    # One CPU for the whole run, set-up probes included: the calibration
    # slices then time the CPU the job ran on, and the CLI's worker threads
    # share it instead of running on a CPU in another speed phase.
    os.sched_setaffinity(0, {max(cpus)})
    if args.setup_probe is not None:
        work = WORK / args.workload / f"probe_{args.setup_probe}"
        took = setup(args.workload, args.seed, work)[2]
        clear(work)
        print(took)
        return 0

    work = WORK / args.workload
    clear(work)
    cli, jobs, first_setup = setup(args.workload, args.seed, work)
    wl = Workload(cli, args.workload, args.seed, jobs, work)

    import numpy
    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env nproc={len(cpus)} pinned_cpu={max(cpus)} "
          f"numpy={numpy.__version__} python={platform.python_version()} "
          f"blas_core={blas_core()} blas_threads=1 "
          f"output_fs={filesystem(work)} "
          f"reference_digests={'stored' if wl.reference else 'none'}")

    if args.trace:
        metrics, plain, traced = measure_traced(
            wl, args.seconds, work / "spans.jsonl")
        print(f"passes untraced={len(plain)} traced={len(traced)} "
              f"untraced_median_s={statistics.median(plain):.4f} "
              f"traced_median_s={statistics.median(traced):.4f} "
              f"spans={work / 'spans.jsonl'}")
    else:
        setup_times = [first_setup] + probe_setup(args)
        wall_cal = measure(wl, args.seconds)
        for (job, _), times, units in zip(wl.jobs, wl.samples, wl.units):
            print(f"job {job.label}: runs={len(times)} "
                  f"median_s={statistics.median(times):.4f} "
                  f"min_s={min(times):.4f} max_s={max(times):.4f} "
                  f"unit_ms={1000 * statistics.median(units):.2f}")
        print(f"wall_s (uncalibrated sum of job medians) = "
              f"{sum(statistics.median(t) for t in wl.samples):.4f} s")
        metrics = {
            "wall_cal": wall_cal,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"setup samples_s={[round(t, 4) for t in setup_times]}")
    clear(work / "runs")

    units = declared_units(args.trace)
    if set(units) != set(metrics):
        raise BenchError("measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(metrics))}")
    for problem in wl.problems:
        print(f"FAIL {problem}")
    print(f"fail_rate = {wl.failed / wl.attempted:.4f} "
          f"({wl.failed}/{wl.attempted} jobs)")
    for name, u in units.items():
        value = metrics[name]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} = {shown} {u}")
    print(json.dumps({
        "correct": not wl.problems,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": metrics[name], "unit": u}
                    for name, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
