#!/usr/bin/env python3
"""Benchmark launcher: builds the program from source, runs one workload and
prints the result as one JSON line, last on stdout.

    python3 perfbench/run.py --workload {dst_grid|smr_wal|smr_real|node_tcp}
                             --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to .bench_build/perfbench,
traced runs write their span dumps to .bench_out/. See perfbench/README.md.
"""
import argparse
import json
import os
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
PERFBENCH = os.path.join(BUILD, "perfbench")
NODE = os.path.join(BUILD, "mewc_node")
IN_PROCESS = ("dst_grid", "smr_wal", "smr_real")
WORKLOADS = IN_PROCESS + ("node_tcp",)
RUN_TIMEOUT_S = 170

# node_tcp cluster shape and closed-loop load: K ops per node, K from the
# run length at the ~24 op/s the cluster sustains today; the nodes run two
# spare rotations so the last op of every node still finds a slot.
NODE_N, NODE_T = 4, 1
OPS_PER_NODE_PER_S = 6


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "smr", "engine.hpp")):
        die("program sources not found under " + ROOT + " (run from a checkout)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                die("build failed, see " + log_path)


def percentile(xs, q):
    """Nearest-rank percentile, the same rule as the C++ side."""
    if not xs:
        return 0.0
    xs = sorted(xs)
    rank = min(max(int(-(-q * len(xs) // 1)), 1), len(xs))
    return xs[rank - 1]


def reap(procs):
    """Kills every process group still alive and waits for each process."""
    for p in procs:
        if p.poll() is None:
            try:
                os.killpg(p.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
    for p in procs:
        try:
            p.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass


def last_json_line(text):
    for line in reversed(text.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no result line")


def run_in_process(args):
    cmd = [PERFBENCH, "run", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        reap([proc])
    if proc.returncode != 0:
        die("perfbench exited with %s" % proc.returncode)
    return last_json_line(out)


# ---------------------------------------------------------------------------
# node_tcp
# ---------------------------------------------------------------------------

EXIT_PATTERNS = {
    "slots": re.compile(r"slots=(\d+) committed=(\d+) skipped=(\d+) "
                        r"checkpoints=\d+ fallbacks=(\d+) in (\d+) ms"),
    "client": re.compile(r"client ops=(\d+) acked_ok=(\d+) acked_retry=(\d+)"),
    "timeouts": re.compile(r"round timeouts=(\d+)"),
    "sent": re.compile(r"transport sent=(\d+)"),
    "ledger": re.compile(r"ledger digest: (0x[0-9a-f]+)"),
    "kv": re.compile(r"kv digest: (0x[0-9a-f]+)"),
}


def parse_exit(lines):
    """The summary block mewc_node prints at exit, as numbers."""
    got = {}
    for line in lines:
        for key, pat in EXIT_PATTERNS.items():
            m = pat.search(line)
            if m:
                got[key] = m.groups()
    return got


def check_cluster(exits, slots, client):
    """Violations of a node_tcp run: every node ran every slot without skips
    or fallbacks and exited with the same ledger and kv digest, that kv
    digest equals the client's serial replay, and every op was acked ok."""
    errors = list(client.get("errors", []))
    if client.get("acked_ok") != client.get("attempted"):
        errors.append("acked_ok %s of %s ops" % (client.get("acked_ok"),
                                                  client.get("attempted")))
    for j, e in enumerate(exits):
        if any(k not in e for k in EXIT_PATTERNS):
            errors.append("node %d: incomplete exit summary" % j)
            continue
        ran, committed, skipped, fallbacks, _ = map(int, e["slots"])
        if ran != slots or committed != slots or skipped or fallbacks:
            errors.append("node %d: slots=%d committed=%d skipped=%d "
                          "fallbacks=%d" % (j, ran, committed, skipped,
                                            fallbacks))
    digests = {(e.get("ledger"), e.get("kv")) for e in exits}
    if len(digests) != 1:
        errors.append("nodes disagree on ledger/kv digest: %s" % sorted(digests))
    elif exits and exits[0].get("kv", (None,))[0] != client.get("final_kv"):
        errors.append("node kv digest %s != replayed %s" % (
            exits[0].get("kv", ("?",))[0], client.get("final_kv")))
    return errors


def free_base_port(n):
    """A random base port whose 2n node and client ports are all free."""
    rng = random.SystemRandom()
    for _ in range(50):
        base = rng.randrange(20000, 60000 - 2 * n)
        try:
            socks = []
            for p in range(base, base + 2 * n):
                s = socket.socket()
                socks.append(s)
                s.bind(("127.0.0.1", p))
            return base
        except OSError:
            continue
        finally:
            for s in socks:
                s.close()
    die("no free port range found")


class NodeProc:
    """One mewc_node process with its stdout collected by a reader thread."""

    def __init__(self, cmd):
        self.lines = []
        self.up_at = None
        self.rusage = None
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True,
                                     start_new_session=True)
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            if self.up_at is None and "cluster up" in line:
                self.up_at = time.monotonic()
            self.lines.append(line)

    def wait(self, deadline):
        """Waits for exit (keeping the rusage); False on timeout."""
        while time.monotonic() < deadline:
            pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
            if pid == self.proc.pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.rusage = ru
                self.reader.join(timeout=5)
                return True
            time.sleep(0.02)
        return False


def run_cluster(seed, ops_per_node):
    """Launches a 4-node cluster, drives it with the closed-loop client and
    returns (setup_s, client report, exit summaries, peak RSS in MB, errors).
    Every node and client process is reaped before this returns."""
    slots = NODE_N * (ops_per_node + 2)
    procs = []
    try:
        for attempt in range(3):
            base = free_base_port(NODE_N)
            t0 = time.monotonic()
            nodes = [NodeProc([NODE, "--id", str(j), "--n", str(NODE_N),
                               "--t", str(NODE_T), "--base-port", str(base),
                               "--slots", str(slots), "--seed", str(seed),
                               "--connect-timeout-ms", "10000"])
                     for j in range(NODE_N)]
            procs = [nd.proc for nd in nodes]
            deadline = t0 + 20
            while time.monotonic() < deadline:
                if all(nd.up_at for nd in nodes) or any(
                        nd.proc.poll() is not None for nd in nodes):
                    break
                time.sleep(0.002)
            if all(nd.up_at for nd in nodes):
                break
            # A port taken between the probe and the bind: start over.
            reap(procs)
        else:
            return None, {}, [], 0, ["cluster never came up"]
        setup_s = max(nd.up_at for nd in nodes) - t0

        client = subprocess.Popen(
            [PERFBENCH, "node-client", "--ports",
             ",".join(str(base + NODE_N + j) for j in range(NODE_N)),
             "--ops-per-node", str(ops_per_node), "--slots", str(slots),
             "--seed", str(seed), "--t", str(NODE_T),
             "--timeout-s", str(RUN_TIMEOUT_S - 20)],
            stdout=subprocess.PIPE, text=True, start_new_session=True)
        procs.append(client)
        out, _ = client.communicate(timeout=RUN_TIMEOUT_S - 10)
        report = last_json_line(out) if client.returncode == 0 else {
            "errors": ["client exited with %s" % client.returncode]}

        deadline = time.monotonic() + 60
        errors = []
        for j, nd in enumerate(nodes):
            if not nd.wait(deadline):
                errors.append("node %d did not exit" % j)
            elif nd.proc.returncode != 0:
                errors.append("node %d exited with %s" % (j, nd.proc.returncode))
        exits = [parse_exit(nd.lines) for nd in nodes]
        errors += check_cluster(exits, slots, report)
        rss_mb = sum(nd.rusage.ru_maxrss for nd in nodes if nd.rusage) / 1024.0
        return setup_s, report, exits, rss_mb, errors
    finally:
        reap(procs)


def node_metrics(exits, report, slots):
    """Per-layer node.* metrics from the exit summaries and client timing."""
    slot_ms = sum(int(e["slots"][4]) for e in exits) / len(exits) / slots
    sent = sum(int(e["sent"][0]) for e in exits)
    lat = report["latency_ms"]
    return {
        "node.slot_ms": {"value": slot_ms, "unit": "ms"},
        "node.round_ms": {"value": slot_ms / report["bb_rounds"], "unit": "ms"},
        "node.queue_wait_ms": {"value": sum(lat) / len(lat) - slot_ms,
                               "unit": "ms"},
        "node.envelopes_per_slot": {"value": sent / slots, "unit": "envelopes"},
        "node.round_timeouts": {
            "value": sum(int(e["timeouts"][0]) for e in exits),
            "unit": "count"},
    }


def run_node_tcp(args):
    ops_per_node = max(4, round(args.seconds * OPS_PER_NODE_PER_S))
    slots = NODE_N * (ops_per_node + 2)
    setup_s, report, exits, rss_mb, errors = run_cluster(args.seed,
                                                         ops_per_node)
    for e in errors:
        print("perfbench: check failed: " + e, file=sys.stderr)
    attempted = NODE_N * ops_per_node
    if setup_s is None or "latency_ms" not in report:
        die("node_tcp run did not complete")
    acked = report["acked_ok"]
    result = {"correct": not errors, "attempted": attempted,
              "failed": attempted - acked}
    lat = report["latency_ms"]
    if args.trace:
        metrics = node_metrics(exits, report, slots)
        probe = subprocess.run(
            [PERFBENCH, "probe", "--n", str(NODE_N), "--t", str(NODE_T),
             "--seed", str(args.seed), "--out-dir", OUT],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        if probe.returncode != 0:
            die("layer probe failed")
        metrics.update(last_json_line(probe.stdout)["metrics"])
        metrics["sim.rounds_per_instance"] = {"value": report["bb_rounds"],
                                              "unit": "rounds"}
    else:
        metrics = {
            "ops_per_s": {"value": acked / report["span_s"], "unit": "op/s"},
            "op_p50_ms": {"value": percentile(lat, 0.5), "unit": "ms"},
            "op_p90_ms": {"value": percentile(lat, 0.9), "unit": "ms"},
            "msgs_per_op": {"value": sum(int(e["sent"][0]) for e in exits) /
                            max(acked, 1), "unit": "msgs/op"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    result["metrics"] = metrics
    return result


def node_probe(seed):
    """node.* layer metrics from a short cluster run, for the traced runs
    of the in-process workloads."""
    ops_per_node = 4
    setup_s, report, exits, _, errors = run_cluster(seed, ops_per_node)
    if setup_s is None or errors:
        die("node probe failed: %s" % "; ".join(errors))
    return node_metrics(exits, report, NODE_N * (ops_per_node + 2))


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------

def self_test():
    """The C++ checks' self-test plus the cluster audit fed tampered exits."""
    rc = subprocess.run([PERFBENCH, "selftest"]).returncode
    exit_block = ["node 0: slots=8 committed=8 skipped=0 checkpoints=0 "
                  "fallbacks=0 in 300 ms",
                  "node 0: client ops=1 acked_ok=1 acked_retry=0",
                  "node 0: round timeouts=0 late_drops=0 foreign_drops=0",
                  "node 0: transport sent=100 received=100 reconnects=0",
                  "node 0: ledger digest: 0x00000000000000aa",
                  "node 0: kv digest: 0x00000000000000bb"]
    good = [parse_exit(exit_block)] * 2
    client = {"attempted": 2, "acked_ok": 2, "final_kv": "0x00000000000000bb",
              "errors": []}
    cases = [
        ("cluster: agreeing nodes pass", check_cluster(good, 8, client), True),
        ("cluster: diverging kv digest fails", check_cluster(
            [good[0], parse_exit([l.replace("bb", "bc") for l in exit_block])],
            8, client), False),
        ("cluster: kv digest != replay fails", check_cluster(
            good, 8, dict(client, final_kv="0x00000000000000bc")), False),
        ("cluster: dropped ack fails", check_cluster(
            good, 8, dict(client, acked_ok=1)), False),
        ("cluster: skipped slot fails", check_cluster(
            [parse_exit([l.replace("skipped=0", "skipped=1")
                         for l in exit_block])] * 2, 8, client), False),
    ]
    for name, errors, should_pass in cases:
        ok = (not errors) == should_pass
        print("%-58s %s" % (name, "ok" if ok else "FAILED"))
        rc |= 0 if ok else 1
    print("self-test: " + ("all checks behave" if rc == 0 else "FAILED"))
    return rc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    # A SIGTERM from the caller unwinds through the reaping finally blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    build()
    if args.self_test:
        sys.exit(self_test())
    if args.workload == "node_tcp":
        result = run_node_tcp(args)
    else:
        result = run_in_process(args)
        if args.trace:
            result["metrics"].update(node_probe(args.seed))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
