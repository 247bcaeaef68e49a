#!/usr/bin/env python3
"""CI smoke for daed's profile-guided online recompilation.

Against a daed started with a fast `--recompile-ms`, this script checks
the hot-swap contract end to end over real TCP:

1. a `run` request succeeds (and, as a side effect, feeds the daemon's
   profile store);
2. the background worker completes at least one recompile pass over
   that profile (observed via the `profiles` op's counters);
3. the identical request afterwards answers with *identical bytes* —
   the swap of refined artifacts is client-invisible;
4. the same IR under another policy is answered from the coupled-baseline
   memo: its `tasks[0].cae` object is byte-identical to the first
   response's, and `stats` counts at least one baseline hit.

Usage: recompile_smoke.py HOST:PORT
Exits non-zero (with a message on stderr) on any violated step.
"""

import json
import re
import socket
import sys
import time


def connect(addr, deadline):
    host, port = addr.rsplit(":", 1)
    while True:
        try:
            sock = socket.create_connection((host, int(port)), timeout=5)
            sock.settimeout(60)
            return sock.makefile("rwb")
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.2)


def roundtrip(conn, frame):
    conn.write((json.dumps(frame) + "\n").encode())
    conn.flush()
    line = conn.readline()
    if not line:
        sys.exit("daed closed the connection mid-conversation")
    return line


IR = """\
global g0 a : 1024 x f64

task fn t(arg0: i64) {
bb0:
  jump bb1(0)
bb1(bb1p0: i64):
  v0: bool = icmp lt bb1p0, 512
  br v0, bb2, bb3
bb2:
  v1: i64 = imul bb1p0, 8
  v2: ptr = ptradd @g0, v1
  v3: f64 = load v2
  v4: f64 = fmul v3, 2.0
  store v2, v4
  v5: i64 = iadd bb1p0, 1
  jump bb1(v5)
bb3:
  ret
}
"""


def main():
    addr = sys.argv[1]
    deadline = time.monotonic() + 60
    conn = connect(addr, deadline)

    health = json.loads(roundtrip(conn, {"id": 0, "op": "health"}))
    if health.get("result", {}).get("status") != "ok":
        sys.exit(f"daed not healthy: {health}")

    work = {"id": "hot", "op": "run", "ir": IR}
    before = roundtrip(conn, work)
    if json.loads(before).get("ok") is not True:
        sys.exit(f"run request failed: {before!r}")

    while True:
        resp = json.loads(roundtrip(conn, {"id": "p", "op": "profiles"}))
        result = resp.get("result", {})
        if result.get("schema") != "dae-serve-profiles/1":
            sys.exit(f"unexpected profiles response: {resp}")
        if result.get("recompiles", {}).get("completed", 0) >= 1:
            if len(result.get("records", [])) < 1:
                sys.exit(f"recompiled without profile records: {resp}")
            break
        if time.monotonic() > deadline:
            sys.exit(f"recompile worker never completed a pass: {resp}")
        time.sleep(0.1)

    after = roundtrip(conn, work)
    if after != before:
        sys.exit(f"hot swap changed served bytes:\n  {before!r}\n  {after!r}")

    # The baseline does not depend on the policy, and a hot swap cannot
    # change it: a new policy reuses the memoised `cae` pair. The object
    # is flat, so its first occurrence is `tasks[0].cae`, compared as the
    # bytes the daemon wrote.
    phases = roundtrip(conn, dict(work, id="phases", policy="dae-phases:1.6,3.4"))
    if json.loads(phases).get("ok") is not True:
        sys.exit(f"dae-phases run failed: {phases!r}")
    cae = [re.search(rb'"cae":(\{[^{}]*\})', line) for line in (before, phases)]
    if None in cae or cae[0].group(1) != cae[1].group(1):
        sys.exit(f"baseline changed across policies:\n  {before!r}\n  {phases!r}")
    stats = json.loads(roundtrip(conn, {"id": "s", "op": "stats"}))
    cache = stats.get("result", {}).get("cache", {})
    if cache.get("baseline_hits", 0) < 1:
        sys.exit(f"the dae-phases run missed the baseline memo: {stats}")
    print("recompile hot-swap smoke: ok")


if __name__ == "__main__":
    main()
