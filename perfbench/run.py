"""The skewvn benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the one holding ``src/skewvn``).
Workloads (see workloads.py and expected.json):

* ``cli-pipeline``: each op is one ``skewvn`` subprocess; per input the
  sequence is youla, polar, wvn, skew-wvn, verify --decomp-prefix (on the
  skew-wvn prefix), verify --epsilon.
* ``wvn-generic``: each op is one in-process wvn_decompose or
  skew_symmetric_wvn call on a generic spectrum, n = 256 ... 512.
* ``spectrum-corpus``: each op is one in-process youla / polar / wvn /
  skew-wvn / kernel-split call on the ROADMAP spectrum families.

All are closed loops with one client.  A run repeats whole passes over the
workload's op list until their loop time, which leaves out the output
checks, covers ``--seconds`` to within half a pass (at least one pass).
Library ops run in a fresh worker process, which is killed and replaced
when an op passes the workload's deadline; CLI children are killed at the
deadline.  Every op's output is checked after its timed call against the
README contract, and repeated identical ops must give identical outputs.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.
With ``--trace 1`` the run makes one untraced pass and one traced pass
(wrappers from tracing.py around each layer's public functions) and
reports the per-layer metrics plus the tracing overhead.
"""

import os

NPROC = len(os.sched_getaffinity(0))
# One BLAS thread per op process.  At the sizes measured here a second
# thread gives the same wall time for twice the CPU time (n=256 WvN: ~1.2 s
# wall either way), and that spare CPU only widens the spread of the
# timings on a shared host.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))
SETUP_REPEATS = 5
SETUP_TIMEOUT = 120.0
CHECK_TIMEOUT = 120.0
CLI_SUBCOMMANDS = ("youla", "polar", "wvn", "skew-wvn", "verify")


class BenchError(Exception):
    pass


def wait_child(proc, timeout):
    """Reap ``proc``, killing it once ``timeout`` seconds pass.

    Returns (exit code, rusage, killed).  The rusage is the child's own, so
    its ru_maxrss is that child's peak RSS.
    """
    fd = os.pidfd_open(proc.pid)
    try:
        killed = False
        if timeout is not None and not select.select([fd], [], [], timeout)[0]:
            signal.pidfd_send_signal(fd, signal.SIGKILL)
            killed = True
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(fd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, killed


class Worker:
    """A fresh worker.py process: set-up, then library ops over a pipe."""

    def __init__(self, workload, seed, inputs_dir, trace, log):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
             "--seed", str(seed), "--inputs", str(inputs_dir), "--trace", str(trace)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log, env=ENV, cwd=ROOT,
        )
        self.buf = b""
        ready = self.recv(SETUP_TIMEOUT)
        if ready is None or "ready" not in ready:
            self.close(kill=True)
            raise BenchError(f"{workload} worker failed to set up; see its log")
        self.setup_s = ready["setup_s"]
        self.trace = ready["trace"]

    def send(self, msg):
        self.proc.stdin.write(json.dumps(msg).encode() + b"\n")
        self.proc.stdin.flush()

    def recv(self, timeout):
        """The next protocol message, or None on timeout or end of stream."""
        deadline = time.perf_counter() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def close(self, kill=False):
        """Stop the worker and return its peak RSS in KiB."""
        if kill:
            self.proc.kill()
        else:
            self.proc.stdin.close()
        _, usage, _ = wait_child(self.proc, None if kill else CHECK_TIMEOUT)
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()
        return usage.ru_maxrss


class Run:
    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.deadline = workloads.DEADLINE[workload]
        self.work = work
        self.inputs_dir = work / "inputs"
        self.inputs_dir.mkdir(parents=True)
        self.log = open(work / "children.log", "ab")
        self.digests = {}
        self.traces = []
        self.worker = None
        self.matrices = {}

    # -- set-up ---------------------------------------------------------

    def setup(self, trace=0):
        """One fresh set-up; library workloads keep the worker for their ops."""
        worker = Worker(self.workload, self.seed, self.inputs_dir, trace, self.log)
        if self.workload == "cli-pipeline":
            worker.close()
            self.keep_trace(worker)
            if not self.matrices:
                self.matrices = {
                    name: checks.read_cmat(self.inputs_dir / f"{name}.cmat")
                    for name in workloads.input_names(self.workload)
                }
        else:
            self.close()
            self.worker = worker
        return worker.setup_s

    # -- ops --------------------------------------------------------------

    def record(self, name, family, n, op, elapsed, problems, backward_err, digest, rss_kb,
               check_s=0.0):
        key = (name, op)
        if digest is not None:
            first = self.digests.setdefault(key, digest)
            if first != digest:
                problems = problems + ["output differs from an earlier identical op"]
        if elapsed > self.deadline and not any("deadline" in p for p in problems):
            problems = problems + [f"passed the {self.deadline} s deadline"]
        failed = bool(problems)
        return {
            "name": name, "family": family, "n": n, "op": op,
            "elapsed": elapsed, "failed": failed, "problems": problems,
            "backward_err": math.inf if failed else backward_err,
            "rss_kb": rss_kb,
            "check_s": check_s,
        }

    def lib_op(self, name, family, n, op, trace):
        if self.worker is None:
            self.setup(trace)
        worker = self.worker
        worker.send({"name": name, "family": family, "op": op})
        start = time.perf_counter()
        done = worker.recv(self.deadline + 0.5)
        if done is None:
            rss = worker.close(kill=True)
            self.worker = None
            elapsed = time.perf_counter() - start
            self.keep_trace(worker)
            return self.record(name, family, n, op, elapsed,
                               ["killed at the deadline"], None, None, rss)
        check_start = time.perf_counter()
        out = worker.recv(CHECK_TIMEOUT)
        if out is None:
            rss = worker.close(kill=True)
            self.worker = None
            self.keep_trace(worker)
            return self.record(name, family, n, op, done["done"],
                               ["worker died in the check"], None, None, rss)
        if trace:
            worker.trace = out["trace"]
        expect = workloads.expected(family, op)
        problems = list(out["problems"])
        if out["kind"] == "reject" and expect == "reject":
            problems = []
        elif out["kind"] == "result" and expect == "reject":
            problems.append("solved an input that must be refused")
        return self.record(name, family, n, op, done["done"], problems,
                           out["backward_err"], out["digest"], out["rss_kb"],
                           time.perf_counter() - check_start)

    def keep_trace(self, worker):
        if worker.trace is not None:
            self.traces.append(worker.trace)
            worker.trace = None

    def cli_args(self, index, name, family, op, pass_dir):
        path = str(self.inputs_dir / f"{name}.cmat")
        eps = repr(workloads.epsilon_for(family))
        prefix = str(pass_dir / f"{index:02d}-{name}")
        if op == "verify-decomp":
            return ["verify", path, "--decomp-prefix", f"{prefix}.skew-wvn", "--epsilon", eps]
        if op == "verify-eps":
            return ["verify", path, "--epsilon", eps]
        args = [op, path, "--out-prefix", f"{prefix}.{op}"]
        return args + (["--epsilon", eps] if op in ("wvn", "skew-wvn") else [])

    def cli_op(self, index, name, family, n, op, pass_dir, trace):
        args = self.cli_args(index, name, family, op, pass_dir)
        stem = pass_dir / f"{index:02d}-{name}.{op}"
        trace_path = Path(f"{stem}.trace.json")
        cmd = [sys.executable, str(BENCH / "cli_child.py"),
               str(trace_path) if trace else "-", *args]
        with open(f"{stem}.stdout", "wb") as out, open(f"{stem}.stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=ENV, cwd=ROOT)
            code, usage, killed = wait_child(proc, self.deadline)
            elapsed = time.perf_counter() - start
        if trace and trace_path.exists():
            self.traces.append(json.loads(trace_path.read_text()))
        stdout = Path(f"{stem}.stdout").read_text(errors="replace")
        stderr = Path(f"{stem}.stderr").read_text(errors="replace")
        m = self.matrices[name]
        expect = workloads.expected(family, op)
        problems, err, digest = [], None, None
        if killed:
            problems.append("killed at the deadline")
        elif "Traceback (most recent call last)" in stderr:
            problems.append("traceback: " + stderr.strip().splitlines()[-1])
        elif code not in (0, 1, 2):
            problems.append(f"exit code {code}")
        elif expect == "reject":
            if code != 2:
                problems.append(f"exit {code} where exit 2 (refusal) was expected")
        elif code != 0:
            problems.append(f"exit {code}: " + (stderr.strip() or stdout.strip())[-300:])
        else:
            outputs = sorted(pass_dir.glob(f"{index:02d}-{name}.{op}.*.*"))
            try:
                problems, err = self.check_cli_outputs(op, m, family, stem, stdout)
            except Exception as exc:  # malformed output fails its check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            h = hashlib.sha256(stdout.encode())
            for path in outputs:
                if path.suffix in (".cmat", ".txt"):
                    h.update(path.name[len(stem.name):].encode() + path.read_bytes())
            digest = h.hexdigest()
        return self.record(name, family, n, op, elapsed, problems, err, digest,
                           usage.ru_maxrss, time.perf_counter() - start - elapsed)

    def check_cli_outputs(self, op, m, family, stem, stdout):
        eps = workloads.epsilon_for(family)
        if op in ("verify-decomp", "verify-eps"):
            line = "decomp_reconstruction" if op == "verify-decomp" else "wvn_reconstruction"
            problems, residuals = checks.check_report(stdout, m, eps, (line,))
            err = residuals.get(line, math.inf) / (checks.EPS * checks.frob(m))
            return list(problems), err
        prefix = str(stem)
        report = Path(f"{prefix}.report.txt").read_text()
        required = {"youla": "youla_roundtrip", "polar": "polar_factor",
                    "wvn": "wvn_reconstruction", "skew-wvn": "skew_wvn_reconstruction"}[op]
        problems, _ = checks.check_report(report, m, eps if op in ("wvn", "skew-wvn") else None,
                                          (required,))
        problems = list(problems)
        try:
            read = {tag: checks.read_cmat(f"{prefix}.{tag}.cmat") for tag in
                    {"youla": ("U", "D"), "polar": ("K", "D")}.get(op, ("K", "D", "U"))}
        except (OSError, ValueError) as exc:
            return problems + [f"output file: {exc}"], math.inf
        if op == "youla":
            d = read["D"]
            values = checks.block_values(d)
            values = values[: int(np.count_nonzero(np.abs(values)))]
            extra, err = checks.check_youla(m, read["U"], values)
            extra.bound("youla_block_form", checks.frob(d - checks.block_matrix(values, d.shape[0])),
                        checks.TOL)
        elif op == "polar":
            extra, err = checks.check_polar(m, read["K"], read["D"])
            values = None
        elif op == "wvn":
            values = checks.pair_values(read["D"], read["U"])
            extra, err = checks.check_wvn(m, read["K"], read["D"], read["U"], values, eps)
        else:
            values = checks.block_values(read["D"])
            extra, err = checks.check_skew_wvn(m, read["K"], read["D"], read["U"], values, eps)
        problems += extra
        if values is not None:
            problems += self.check_values(f"{prefix}.values.txt", values, m)
        return problems, err

    @staticmethod
    def check_values(path, values, m):
        """values.txt holds the d- or r-sequence, descending."""
        try:
            written = [float(v) for v in Path(path).read_text().split()]
        except (OSError, ValueError) as exc:
            return [f"values.txt: {exc}"]
        if written != sorted(written, reverse=True):
            return ["values.txt is not descending"]
        ours = sorted((float(v) for v in values), reverse=True)
        if len(written) != len(ours) or any(
            abs(a - b) > checks.TOL * (1.0 + checks.frob(m)) for a, b in zip(written, ours)
        ):
            return ["values.txt disagrees with the written matrices"]
        return []

    # -- passes -----------------------------------------------------------

    def one_pass(self, index, trace):
        records = []
        pass_dir = self.work / f"pass{index}"
        pass_dir.mkdir()
        for pos, (name, family, n, op) in enumerate(workloads.schedule(self.workload)):
            if self.workload == "cli-pipeline":
                slot = pos // len(workloads.CLI_OPS)
                records.append(self.cli_op(slot, name, family, n, op, pass_dir, trace))
            else:
                records.append(self.lib_op(name, family, n, op, trace))
        shutil.rmtree(pass_dir)
        return records

    def passes(self, seconds, trace, max_passes=None):
        """Whole passes until their loop time covers ``seconds`` to within half a pass.

        A pass's loop time is its wall time without the benchmark's own
        output checks, so how long the checks take cannot change how many
        passes a run makes.
        """
        records, times = [], []
        while True:
            t0 = time.perf_counter()
            done = self.one_pass(len(times), trace)
            records += done
            times.append(time.perf_counter() - t0 - sum(r["check_s"] for r in done))
            if max_passes is not None and len(times) >= max_passes:
                break
            if sum(times) + max(times) / 2 >= seconds:
                break
        return records, times

    def close(self):
        if self.worker is not None:
            rss = self.worker.close()
            self.keep_trace(self.worker)
            self.worker = None
            return rss
        return 0


def percentile(values, q):
    """Nearest-rank percentile: always one of the measured values."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def charged_times(records, deadline):
    """Op times with each failed op counted at the deadline plus its own time."""
    return [r["elapsed"] + deadline if r["failed"] else r["elapsed"] for r in records]


def end_to_end(records, times, deadline, setups, peak_kb):
    charged = charged_times(records, deadline)
    failed = sum(r["failed"] for r in records)
    loop_s = sum(times)
    errs = [r["backward_err"] for r in records if r["backward_err"] is not None]
    err = percentile(errs, 0.5) if errs else math.inf
    passes = len(times)
    return {
        "op_s_p50": (percentile(charged, 0.5), "s"),
        "op_s_p90": (percentile(charged, 0.9), "s"),
        "ok_ops_per_s": ((len(records) - failed) / loop_s, "1/s"),
        "fail_rate": ((failed + passes / 2) / (len(records) + passes), "ratio"),
        "peak_rss_mb": (peak_kb * 1024 / 1e6, "MB"),
        "backward_err_p50": (min(err, sys.float_info.max), "eps"),
        "setup_s": (statistics.median(setups), "s"),
    }


def cli_startup():
    times = []
    for _ in range(3):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import skewvn.cli"], env=ENV, cwd=ROOT)
        code, _, _ = wait_child(proc, 60.0)
        if code != 0:
            raise BenchError("import skewvn.cli failed")
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def per_layer(workload, records_plain, records_traced, deadline, trace):
    merged = tracing.merge(trace)
    out = {}
    for name, s in merged["spans"].items():
        out[f"{name}.calls"] = (s["calls"], "count")
        out[f"{name}.self_s"] = (s["self_s"], "s")
        out[f"{name}.fail"] = (s["fail"], "count")
    c = merged["counters"]
    out["wvn.outer_steps"] = (c["wvn.outer_steps"], "count")
    out["wvn.rank_step_attempts"] = (c["wvn.rank_step_attempts"], "count")
    out["wvn.cells_max"] = (c["wvn.cells_max"], "count")
    attempts = c["wvn.rank_step_attempts"]
    out["wvn.rank_step_accept_ratio"] = (
        c["wvn.outer_steps"] / attempts if attempts else 0.0, "ratio")
    out["wvn.spectral_resolution.bytes"] = (c["wvn.spectral_resolution.bytes"], "B")
    out["cmatio.bytes_written"] = (c["cmatio.bytes_written"], "B")
    out["cmatio.bytes_read"] = (c["cmatio.bytes_read"], "B")
    for sub in CLI_SUBCOMMANDS:
        times = [r["elapsed"] for r in records_plain if workload == "cli-pipeline"
                 and ("verify" if r["op"].startswith("verify") else r["op"]) == sub]
        out[f"cli.{sub}.s_p50"] = (percentile(times, 0.5) if times else 0.0, "s")
    out["cli.startup_s"] = (cli_startup(), "s")
    plain = percentile(charged_times(records_plain, deadline), 0.5)
    traced = percentile(charged_times(records_traced, deadline), 0.5)
    out["trace.overhead"] = (traced / plain, "ratio")
    return out


def environment(args, deadline):
    def git_sha():
        if not (ROOT / ".git").exists():
            return None
        try:
            return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10).stdout.strip() or None
        except OSError:
            return None

    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": git_sha(),
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e6,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "deadline_s": deadline,
        "trace": args.trace,
    }


def summarize(records):
    for r in records:
        status = "ok"
        if r["failed"]:
            known = workloads.is_known_failure(r["family"], r["op"])
            status = f"FAIL ({'known' if known else 'new'}): " + "; ".join(r["problems"])[:300]
        err = "-" if r["backward_err"] is None else f"{r['backward_err']:.4g}"
        print(f"op {r['name']} {r['op']} {r['elapsed']:.3f}s err={err} {status}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.INPUTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "skewvn" / "cli.py").is_file():
        print(f"error: no skewvn sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args.workload, args.seed, work)
    try:
        print("env " + json.dumps(environment(args, run.deadline)))
        if args.trace:
            run.setup(trace=0)
            plain, _ = run.passes(args.seconds, trace=0, max_passes=1)
            run.close()
            run.setup(trace=1)
            traced, _ = run.passes(args.seconds, trace=1, max_passes=1)
            run.close()
            records = plain + traced
            metrics = per_layer(args.workload, plain, traced, run.deadline, run.traces)
        else:
            setups = [run.setup() for _ in range(SETUP_REPEATS)]
            records, times = run.passes(args.seconds, trace=0)
            peak = max([r["rss_kb"] for r in records] + [run.close()])
            metrics = end_to_end(records, times, run.deadline, setups, peak)
    finally:
        if run.worker is not None:
            run.worker.close(kill=True)
        run.log.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    summarize(records)
    failed = sum(r["failed"] for r in records)
    correct = all(
        not r["failed"] or workloads.is_known_failure(r["family"], r["op"]) for r in records
    )
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
