#!/usr/bin/env python3
"""Interactive stdin smoke test for neusight-serve.

Spawns `neusight-serve` without --async and keeps its stdin open. Each
request line of tests/data/serve_smoke.jsonl is written on its own, and
its answer must arrive within a timeout before the next line is written:
the stdin loop answers a line before it reads the next one, so a client
holding the pipe open gets a reply per request. A malformed line must
get an immediate error answer too, and closing stdin must end the server
with nothing left to print and exit code 2 (the tool's code for "some
request failed", here the malformed line).

Usage: serve_repl_smoke.py <path-to-neusight-serve> <request-script>
"""

import json
import queue
import subprocess
import sys
import threading

ANSWER_TIMEOUT_S = 30


def fail(msg):
    print("serve_repl_smoke: FAIL:", msg, file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 3:
        fail("usage: serve_repl_smoke.py <neusight-serve> <script>")
    serve, script = sys.argv[1], sys.argv[2]
    with open(script) as f:
        requests = [line.strip() for line in f
                    if line.strip() and not line.startswith("#")]
    if not requests:
        fail("no requests in " + script)

    proc = subprocess.Popen(
        [serve, "--backend", "oracle", "--workers", "2"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL)
    lines = queue.Queue()

    def pump():
        for raw in proc.stdout:
            lines.put(raw)
        lines.put(None)

    threading.Thread(target=pump, daemon=True).start()

    def ask(line):
        proc.stdin.write((line + "\n").encode())
        proc.stdin.flush()
        try:
            raw = lines.get(timeout=ANSWER_TIMEOUT_S)
        except queue.Empty:
            proc.kill()
            fail("no answer within %d s while stdin stays open: %s"
                 % (ANSWER_TIMEOUT_S, line))
        if raw is None:
            fail("server closed stdout before answering: " + line)
        return json.loads(raw)

    for line in requests:
        tag = json.loads(line).get("tag")
        reply = ask(line)
        if not reply.get("ok") or reply.get("tag") != tag:
            proc.kill()
            fail("bad answer to %s: %s" % (tag, reply))

    reply = ask("{not json")
    if reply.get("ok") or "line %d" % (len(requests) + 1) not in \
            reply.get("error", ""):
        proc.kill()
        fail("malformed line not answered with its error: %s" % reply)

    proc.stdin.close()
    try:
        code = proc.wait(timeout=ANSWER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail("server did not exit after stdin closed")
    if code != 2:
        fail("server exited %d, expected 2 (one failed request)" % code)
    if lines.get(timeout=ANSWER_TIMEOUT_S) is not None:
        fail("output after the last answer")
    print("serve_repl_smoke: OK (%d answers)" % (len(requests) + 1))


if __name__ == "__main__":
    main()
