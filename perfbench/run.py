#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload exact-oneshot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/bench.exe and bin/probdbd.exe with dune (shared cache off,
so nothing is read or written outside the checkout), runs the benchmark in
a process group of its own, passes its report through, and afterwards
kills and waits for anything left in that group.  The last line of
standard output is the benchmark's JSON result.  Exits non-zero without a
result when the checkout holds no probdb sources or the build fails.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["exact-oneshot", "sample-pool", "daemon-mix"]
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
PROBDBD = os.path.join("_build", "default", "bin", "probdbd.exe")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def opam_bin_dirs(env):
    """Candidate bin directories of an opam switch: the one `opam var bin`
    names, then every switch under the opam root."""
    dirs = []
    opam = shutil.which("opam", path=env.get("PATH"))
    if opam:
        try:
            done = subprocess.run([opam, "var", "bin"], env=env, capture_output=True, text=True, timeout=60)
            if done.returncode == 0 and done.stdout.strip():
                dirs.append(done.stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    root = env.get("OPAMROOT") or os.path.join(os.path.expanduser("~"), ".opam")
    return dirs + sorted(glob.glob(os.path.join(root, "*", "bin")))


def find_dune(env):
    """Puts an OCaml toolchain on env's PATH when dune is not on it already
    (a shell that did not load the opam environment).  Returns whether
    dune is found."""
    if shutil.which("dune", path=env.get("PATH")):
        return True
    for d in opam_bin_dirs(env):
        if os.access(os.path.join(d, "dune"), os.X_OK):
            env["PATH"] = d + os.pathsep + env.get("PATH", os.defpath)
            log("dune is not on PATH; using %s" % d)
            return True
    log("dune not found on PATH or in an opam switch")
    return False


def build(env):
    for path in ["dune-project", "lib", "bin", os.path.join("perfbench", "dune")]:
        if not os.path.exists(path):
            log("no probdb sources here (missing %s); run from the repository root" % path)
            return False
    if not find_dune(env):
        return False
    cmd = ["dune", "build", "--root", ".", "perfbench/bench.exe", "bin/probdbd.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("build failed: %s" % e)
        return False
    if done.returncode != 0:
        log("build failed (dune exit %d)" % done.returncode)
        return False
    return True


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


def run_bench(args, env, timeout=175):
    """Runs bench.exe in a new session; returns (exit code, stdout text)."""
    cmd = [BENCH, "--probdbd", PROBDBD] + args
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log("benchmark timed out after %d s" % timeout)
        out, code = "", 124
    finally:
        # The daemon children share the benchmark's process group: stop
        # whatever is left and wait until the group is empty.
        for sig in (signal.SIGTERM, signal.SIGKILL):
            if not group_alive(proc.pid):
                break
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                break
            deadline = time.monotonic() + 3
            while group_alive(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
        proc.wait()
    return code, out


def declared():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    units = lambda key: [(m["name"], m["unit"]) for m in spec[key]]
    return units("end_to_end"), units("per_layer")


def check_sum(metrics, rows, total, problems, what):
    s = sum(metrics[r]["value"] for r in rows)
    t = metrics[total]["value"]
    if abs(s - t) > 1e-6 * max(1.0, abs(t)):
        problems.append("%s: layer rows sum to %g, end-to-end is %g" % (what, s, t))
    unattributed = metrics[rows[-1]]["value"]
    if unattributed < -0.01 * t:
        problems.append("%s: unattributed is negative (%g of %g)" % (what, unattributed, t))


def self_test(env):
    """Tiny sizes of every workload, traced and untraced: every declared
    metric is emitted with its unit, end-to-end metrics are positive, and
    the layer rows plus unattributed sum to the end-to-end time."""
    e2e, layers = declared()
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            code, out = run_bench(
                ["--workload", w, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"], env
            )
            what = "%s --trace %d" % (w, trace)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append("%s: exit %d" % (what, code))
                continue
            res = json.loads(lines[-1])
            m = res["metrics"]
            want = layers if trace else e2e
            got = [(k, v["unit"]) for k, v in m.items()]
            if got != want:
                problems.append("%s: metrics %s, declared %s" % (what, got, want))
                continue
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append("%s: correct=%s failed=%s" % (what, res["correct"], res["failed"]))
            if trace == 0:
                for k, v in m.items():
                    if not v["value"] > 0:
                        problems.append("%s: %s is %g" % (what, k, v["value"]))
            else:
                rows = ["lang.parser.ms", "eval.engine.prepare.ms", "eval.engine.execute.ms", "render.ms",
                        "unattributed.ms"]
                check_sum(m, rows, "harness.answer_ms", problems, what)
                if w == "daemon-mix":
                    rows = ["harness.gen_lag_ms", "serve.outside_ms", "serve.compile_ms", "serve.eval_ms",
                            "serve.unattributed_ms"]
                    check_sum(m, rows, "serve.latency_mean_ms", problems, what + " (daemon)")
            print("self-test %-26s ok=%s attempted=%d" % (what, not problems, res["attempted"]), flush=True)
    for p in problems:
        log("self-test: " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    # Temporary files of the build and the run stay inside the checkout.
    tmp = os.path.abspath(".perfbench-tmp")
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    os.makedirs(tmp, exist_ok=True)
    try:
        if not build(env):
            return 2
        if args.self_test:
            return self_test(env)
        code, out = run_bench(
            ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            env,
        )
        sys.stdout.write(out)
        sys.stdout.flush()
        return code
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
