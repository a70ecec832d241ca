#!/usr/bin/env python3
"""Socket front-end smoke test.

Spawns `neusight-serve --listen 127.0.0.1:0` (optionally sharded),
parses the ready line off stderr for the ephemeral port, drives a few
forecasts and a stats request over TCP, then delivers SIGTERM while a
request is in flight and asserts the whole process tree drains cleanly
(exit code 0, all replies well-formed).

With --chaos it instead runs the fault-tolerance smoke: SIGKILL a shard
worker mid-load and wedge another via --fault-spec, asserting the
self-healing invariants — every accepted request gets exactly one reply
(a result or a typed timeout/overload/unavailable error, never a hang),
the killed shard respawns and rejoins the ring, and the router's
request ledger balances (submitted == completed + rejected + timed_out).

Every arm checks that net.connections counts exactly the connections
the script opened (a shard worker's router pipe is not a client) and
that the request ledger balances. The plain arms end with a
descriptor-exhaustion phase: with RLIMIT_NOFILE at 24 and 40 clients
connected, the server must neither spin on accept nor flood stderr, and
must serve a fresh client once the held connections close.

Usage: net_smoke.py <path-to-neusight-serve> [--shards N] [--chaos]
"""

import json
import os
import re
import resource
import signal
import socket
import subprocess
import sys
import threading
import time

TYPED_ERRORS = {"timeout", "overload", "unavailable", "draining"}


def fail(msg):
    print("net_smoke: FAIL:", msg, file=sys.stderr)
    sys.exit(1)


def spawn_server(serve, extra_args, preexec_fn=None):
    """Start neusight-serve and return (proc, port) once it listens."""
    cmd = [serve, "--backend", "oracle", "--workers", "1",
           "--listen", "127.0.0.1:0"] + extra_args
    proc = subprocess.Popen(cmd, stderr=subprocess.PIPE,
                            preexec_fn=preexec_fn)
    deadline = time.time() + 30
    for raw in proc.stderr:
        line = raw.decode(errors="replace")
        match = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
        if match:
            return proc, int(match.group(1))
        if time.time() > deadline:
            break
    proc.kill()
    fail("server never printed its ready line")


class Client:
    """Line-oriented JSON client over one TCP connection."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=30)
        self.sock.settimeout(30)
        self.stream = self.sock.makefile("rwb")

    def request(self, obj):
        self.stream.write((json.dumps(obj) + "\n").encode())
        self.stream.flush()

    def reply(self):
        raw = self.stream.readline()
        if not raw:
            fail("connection closed before a reply")
        return json.loads(raw)

    def stats(self, tag):
        self.request({"op": "stats", "tag": tag})
        r = self.reply()
        if not r.get("ok") or "stats" not in r:
            fail("stats request failed: %s" % r)
        return r

    def close(self):
        self.sock.close()


def worker_pids(router_pid):
    """The shard workers are the router's direct children."""
    path = "/proc/%d/task/%d/children" % (router_pid, router_pid)
    with open(path) as f:
        return [int(p) for p in f.read().split()]


def drive_window(client, start, count, answered, errors):
    """Send `count` distinct forecasts and read every reply back.

    Replies may arrive out of order (and interleaved with retries after
    a shard death), so they are matched by tag. Each must be ok or
    carry a typed error code — a missing or untyped reply fails.
    """
    tags = set()
    for i in range(start, start + count):
        tag = "c%d" % i
        tags.add(tag)
        client.request({"op": "inference", "model": "BERT-Large",
                        "batch": (i % 512) + 1, "gpu": "A100-40GB",
                        "tag": tag})
    for _ in range(count):
        r = client.reply()
        tag = r.get("tag")
        if tag not in tags:
            fail("unexpected reply tag %s" % tag)
        tags.discard(tag)
        if r.get("ok"):
            answered[0] += 1
        elif r.get("code") in TYPED_ERRORS:
            errors[r["code"]] = errors.get(r["code"], 0) + 1
        else:
            fail("untyped failure reply: %s" % r)
    if tags:
        fail("unanswered requests: %s" % sorted(tags))


def await_recovery(client, shards, min_restarts, what):
    """Poll stats until every shard is live again and the supervisor
    has logged the respawn(s)."""
    deadline = time.time() + 30
    poll = 0
    while True:
        r = client.stats("rec%d" % poll)
        poll += 1
        stats = r["stats"]
        if (r.get("shards") == shards
                and stats.get("net.shard.restarts", 0) >= min_restarts):
            return stats
        if time.time() > deadline:
            fail("%s: no recovery (shards=%s restarts=%s)"
                 % (what, r.get("shards"),
                    stats.get("net.shard.restarts")))
        time.sleep(0.2)


def check_connections(stats, opened, what):
    """net.connections counts client connections once, in the process
    that faces the clients."""
    if stats.get("net.connections") != opened:
        fail("%s: net.connections=%s, but %d connection(s) were opened"
             % (what, stats.get("net.connections"), opened))


def check_ledger(stats, what):
    submitted = stats.get("net.requests.submitted", 0)
    settled = (stats.get("net.requests.completed", 0)
               + stats.get("net.requests.rejected", 0)
               + stats.get("net.requests.timed_out", 0))
    if submitted != settled or submitted == 0:
        fail("%s: ledger off: submitted=%d settled=%d (%s)"
             % (what, submitted, settled,
                {k: v for k, v in stats.items()
                 if k.startswith("net.requests.")}))


def shutdown(proc, client):
    client.close()
    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail("server did not exit within 60s of SIGTERM")
    if code != 0:
        fail("server exited %d after SIGTERM drain" % code)


def chaos_kill_phase(serve, shards):
    """SIGKILL a worker mid-load: the router must answer everything,
    respawn the shard, and keep the request ledger balanced."""
    proc, port = spawn_server(serve, [
        "--shards", str(shards), "--request-timeout", "10000",
        "--heartbeat-interval", "200"])
    try:
        client = Client(port)
        answered, errors = [0], {}
        windows, per_window = 30, 20
        victim = None
        for w in range(windows):
            if w == 5:
                pids = worker_pids(proc.pid)
                if len(pids) != shards:
                    fail("expected %d workers, see %s" % (shards, pids))
                victim = pids[0]
                os.kill(victim, signal.SIGKILL)
            drive_window(client, w * per_window, per_window,
                         answered, errors)
        total = answered[0] + sum(errors.values())
        if total != windows * per_window:
            fail("kill phase: %d replies for %d requests"
                 % (total, windows * per_window))
        if answered[0] == 0:
            fail("kill phase: nothing succeeded")
        stats = await_recovery(client, shards, 1, "kill phase")
        if stats.get("net.shard.deaths", 0) < 1:
            fail("kill phase: death not recorded: %s" % stats)
        check_ledger(stats, "kill phase")
        check_connections(stats, 1, "kill phase")
        shutdown(proc, client)
        print("net_smoke: kill phase OK (pid %d killed, ok=%d "
              "typed-errors=%s)" % (victim, answered[0], errors))
    finally:
        if proc.poll() is None:
            proc.kill()


def chaos_wedge_phase(serve):
    """Wedge shard 1 via --fault-spec: only the heartbeat can tell, so
    the router must detect the silence, kill and respawn the worker,
    and retry or time out everything stranded on it."""
    proc, port = spawn_server(serve, [
        "--shards", "2", "--request-timeout", "5000",
        "--heartbeat-interval", "200",
        "--fault-spec", "wedge:shard=1,after=40"])
    try:
        client = Client(port)
        answered, errors = [0], {}
        for w in range(12):
            drive_window(client, 1000 + w * 10, 10, answered, errors)
        stats = await_recovery(client, 2, 1, "wedge phase")
        check_ledger(stats, "wedge phase")
        check_connections(stats, 1, "wedge phase")
        if answered[0] == 0:
            fail("wedge phase: nothing succeeded")
        shutdown(proc, client)
        print("net_smoke: wedge phase OK (ok=%d typed-errors=%s)"
              % (answered[0], errors))
    finally:
        if proc.poll() is None:
            proc.kill()


def process_cpu_seconds(pid):
    """User + system CPU of @pid and its direct children (the shard
    workers), from /proc."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0.0
    children = "/proc/%d/task/%d/children" % (pid, pid)
    with open(children) as f:
        pids = [pid] + [int(p) for p in f.read().split()]
    for p in pids:
        with open("/proc/%d/stat" % p) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total


def fd_exhaustion_phase(serve, shards):
    """Out of file descriptors, the level-triggered listen socket stays
    readable while accept() fails with EMFILE: the server must take it
    out of the loop (no spin, one warning) and accept again once
    descriptors free up."""
    def limit_fds():
        resource.setrlimit(resource.RLIMIT_NOFILE, (24, 24))

    proc, port = spawn_server(serve, ["--shards", str(shards)],
                              preexec_fn=limit_fds)
    warnings = [0]

    def pump_stderr():
        for raw in proc.stderr:
            if b"warn" in raw:
                warnings[0] += 1

    threading.Thread(target=pump_stderr, daemon=True).start()
    try:
        held = [socket.create_connection(("127.0.0.1", port), timeout=30)
                for _ in range(40)]
        time.sleep(0.2)  # Let the server hit the limit.
        cpu_before = process_cpu_seconds(proc.pid)
        time.sleep(2.0)
        cpu = process_cpu_seconds(proc.pid) - cpu_before
        if cpu >= 0.2:
            fail("fd phase: server burned %.2f s of CPU in 2 s with its "
                 "descriptors exhausted" % cpu)
        if warnings[0] >= 10:
            fail("fd phase: %d warn lines in 2 s" % warnings[0])
        for sock in held:
            sock.close()
        client = Client(port)
        client.sock.settimeout(5)
        client.request({"op": "ping", "tag": "fresh"})
        r = client.reply()
        if not r.get("pong") or r.get("tag") != "fresh":
            fail("fd phase: fresh client got %s instead of a pong" % r)
        client.sock.settimeout(30)
        stats = client.stats("fd")["stats"]
        check_connections(stats, len(held) + 1, "fd phase")
        check_ledger(stats, "fd phase")
        shutdown(proc, client)
        print("net_smoke: fd phase OK (cpu=%.3f s, warn lines=%d)"
              % (cpu, warnings[0]))
    finally:
        if proc.poll() is None:
            proc.kill()


def chaos_main(serve, shards):
    chaos_kill_phase(serve, max(shards, 3))
    chaos_wedge_phase(serve)
    print("net_smoke: OK (chaos)")


def main():
    if len(sys.argv) < 2:
        fail("usage: net_smoke.py <neusight-serve> [--shards N] "
             "[--chaos]")
    serve = sys.argv[1]
    shards = 1
    if "--shards" in sys.argv:
        shards = int(sys.argv[sys.argv.index("--shards") + 1])
    if "--chaos" in sys.argv:
        chaos_main(serve, shards)
        return

    cmd = [
        serve, "--backend", "oracle", "--workers", "1",
        "--listen", "127.0.0.1:0", "--shards", str(shards),
    ]
    proc = subprocess.Popen(cmd, stderr=subprocess.PIPE)
    port = None
    deadline = time.time() + 30
    try:
        for raw in proc.stderr:
            line = raw.decode(errors="replace")
            match = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
            if time.time() > deadline:
                break
        if port is None:
            fail("server never printed its ready line")

        sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        sock.settimeout(30)
        stream = sock.makefile("rwb")

        def request(obj):
            stream.write((json.dumps(obj) + "\n").encode())
            stream.flush()

        def reply():
            raw = stream.readline()
            if not raw:
                fail("connection closed before a reply")
            return json.loads(raw)

        # Three forecasts with distinct tags; replies may arrive out of
        # order (the worker pool finishes fast ones first).
        tags = []
        for i, batch in enumerate((1, 2, 4)):
            tag = "smoke%d" % i
            tags.append(tag)
            request({"op": "inference", "model": "BERT-Large",
                     "batch": batch, "gpu": "A100-40GB", "tag": tag})
        seen = set()
        for _ in tags:
            r = reply()
            if not r.get("ok"):
                fail("forecast failed: %s" % r.get("error"))
            seen.add(r.get("tag"))
        if seen != set(tags):
            fail("tags mismatch: %s" % seen)

        # Stats must aggregate (and in sharded mode, merge) registries.
        request({"op": "stats", "tag": "st"})
        r = reply()
        if not r.get("ok") or "stats" not in r:
            fail("stats request failed: %s" % r)
        if shards > 1 and r.get("shards") != shards:
            fail("stats reports %s live shards, want %d"
                 % (r.get("shards"), shards))
        if r["stats"].get("engine.instances") != shards:
            fail("merged stats shows %s engine instances, want %d"
                 % (r["stats"].get("engine.instances"), shards))
        check_connections(r["stats"], 1, "plain")
        check_ledger(r["stats"], "plain")

        # SIGTERM during load: put a request in flight, give the event
        # loop a beat to read it off the socket (the forecast itself
        # takes far longer), then signal. Drain semantics require the
        # accepted request to be answered and the process to exit 0 —
        # no crash, no hung worker, no orphaned shard.
        request({"op": "inference", "model": "GPT2-Large", "batch": 8,
                 "gpu": "A100-40GB", "tag": "last"})
        time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        r = reply()
        if r.get("tag") != "last" or "ok" not in r:
            fail("malformed reply during drain: %s" % r)
        sock.close()
    finally:
        try:
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            fail("server did not exit within 60s of SIGTERM")
    if code != 0:
        fail("server exited %d after SIGTERM drain" % code)
    fd_exhaustion_phase(serve, shards)
    print("net_smoke: OK (shards=%d)" % shards)


if __name__ == "__main__":
    main()
