"""Set-up and library-op worker, one fresh process per use.

    python3 perfbench/worker.py --workload W --seed N --inputs DIR --trace 0|1

Imports skewvn, builds the workload's inputs from the seed (and, for
cli-pipeline, writes them as CMAT files into DIR), then reports ready on
its protocol channel.  It then serves library ops, one JSON request per
stdin line, until stdin closes.  For each op it first sends the wall time
of the call alone, then the outcome of the contract check, which runs
outside the timed region.  Protocol lines go to the original stdout; the
program's own prints go to stderr.

The ready message carries ``setup_s``: the time from this module's first
line, before numpy and skewvn are imported, to ready.  Interpreter start-up
is left out; ``cli.startup_s`` measures it.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
from skewvn import canonical, cmatio, errors, generate, wvn  # noqa: E402
from skewvn.antilinear import AntilinearOperator, Conjugation  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _call(op, m, epsilon):
    if op == "youla":
        return canonical.youla_decompose(m)
    if op == "polar":
        return canonical.polar_factorize(AntilinearOperator(m))
    if op == "wvn":
        return wvn.wvn_decompose(AntilinearOperator(m), epsilon)
    if op == "skew-wvn":
        return wvn.skew_symmetric_wvn(m, Conjugation.standard(m.shape[0]), epsilon)
    if op == "kernel-split":
        return wvn.kernel_split_wvn(m, Conjugation.standard(m.shape[0]), epsilon)
    raise ValueError(f"unknown op {op!r}")


def _check(op, m, result, epsilon):
    """(problems, backward_err, digest) of a returned result."""
    if op == "youla":
        u, r = np.asarray(result.u), np.asarray(result.r, dtype=float)
        return (*checks.check_youla(m, u, r), checks.digest(u, r))
    if op == "polar":
        kappa, s = np.asarray(result.kappa.mat), np.asarray(result.modulus)
        return (*checks.check_polar(m, kappa, s), checks.digest(kappa, s))
    if op == "wvn":
        k, d = np.asarray(result.k.mat), np.asarray(result.d.mat)
        cols = [v for pair in result.basis for v in pair]
        u = np.column_stack(cols) if cols else np.zeros((m.shape[0], 0), dtype=complex)
        values = np.asarray(result.d_values, dtype=float)
        problems, err = checks.check_wvn(m, k, d, u, values, epsilon, result.p)
        return problems, err, checks.digest(k, d, u, values)
    k, d, u = np.asarray(result.k), np.asarray(result.d), np.asarray(result.u)
    values = np.asarray(result.d_values, dtype=float)
    problems, err = checks.check_skew_wvn(m, k, d, u, values, epsilon)
    return problems, err, checks.digest(k, d, u, values)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    def send(msg):
        proto.write(json.dumps(msg) + "\n")

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    inputs = workloads.make_inputs(generate.gen, args.workload, args.seed)
    if args.workload == "cli-pipeline":
        for name, m in inputs.items():
            cmatio.write_cmat(os.path.join(args.inputs, f"{name}.cmat"), m)
    send({"ready": True, "setup_s": time.perf_counter() - _START,
          "trace": tracer and tracer.snapshot()})

    for line in sys.stdin:
        req = json.loads(line)
        m = inputs[req["name"]]
        epsilon = workloads.epsilon_for(req["family"])
        start = time.perf_counter()
        try:
            result = _call(req["op"], m, epsilon)
            exc = None
        except Exception as e:  # the outcome is judged by the caller
            result, exc = None, e
        elapsed = time.perf_counter() - start
        send({"done": elapsed})

        out = {"kind": "result", "problems": [], "backward_err": None, "digest": None}
        if exc is not None:
            out["kind"] = "reject" if isinstance(exc, errors.SkewvnError) else "error"
            out["problems"] = [
                "".join(traceback.format_exception_only(type(exc), exc)).strip()
            ]
        else:
            try:
                out["problems"], out["backward_err"], out["digest"] = _check(
                    req["op"], m, result, epsilon
                )
            except Exception as e:  # a malformed result fails its check
                out["problems"] = [f"check raised {type(e).__name__}: {e}"]
        out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["trace"] = tracer and tracer.snapshot()
        send(out)


if __name__ == "__main__":
    main()
