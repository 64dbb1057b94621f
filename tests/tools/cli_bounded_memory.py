#!/usr/bin/env python3
"""Bounded-memory check of the streaming build and INGEST paths.

Streams seeded 1-D CSVs of 2^14 and 2^20 points, both under the same
declared --n (so the plan, and with it every sketch and counter, is the
same size), through

  * `privhp build` at --threads 1 and 4, and
  * one `privhp ingest` session into a fresh `privhp serve` per size,

and reads each process's peak RSS from the "peak RSS <x> MiB" note of
its summary line (its VmHWM; wait4()'s ru_maxrss would report this
Python script's own peak, carried across the exec). The paper's memory
bound depends on the plan, not on how many points arrive, so the peak
may grow between the two sizes by no more than SLACK_MIB (the stream
pipeline's in-flight windows; docs/BASELINES.md records the measured
growth).

Stdlib-only, Linux. Usage: cli_bounded_memory.py PATH_TO_PRIVHP
(ctest runs it as cli.bounded_memory).
"""

import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import time

SIZES = (1 << 14, 1 << 20)
PLAN_N = 1 << 20
# Largest allowed peak-RSS growth from the small to the large stream.
# A 2^14-point stream is one 16K window, so the small runs never fill
# the reader queue and the 4-thread build's in-flight windows; that
# steady state adds 1.8-2.3 MiB at 2^20 (docs/BASELINES.md). Holding
# the 2^20 points themselves would add 8 MiB.
SLACK_MIB = 4.0

PEAK_RE = re.compile(r"; peak RSS ([0-9.]+) MiB")


def peak_rss_mib(name, stderr):
    m = PEAK_RE.search(stderr)
    if not m:
        raise AssertionError("%s reported no peak RSS:\n%s" % (name, stderr))
    return float(m.group(1))


def run(privhp, *args):
    proc = subprocess.run([privhp] + list(args), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    if proc.returncode != 0:
        raise AssertionError("%s failed (%d):\n%s" %
                             (args[0], proc.returncode, proc.stderr))
    return peak_rss_mib(args[0], proc.stderr)


def write_csv(path, count):
    rng = random.Random(count)
    with open(path, "w") as f:
        for _ in range(count):
            f.write("%.17g\n" % rng.betavariate(2, 5))


def ingest_session(privhp, tmp, csv):
    """Peak RSS of (server, client) for one INGEST session of \\p csv."""
    # A fresh name per session: a stopped server leaves its socket file.
    sock = os.path.join(tmp, "privhp-%d.sock" % os.path.getsize(csv))
    server = subprocess.Popen(
        [privhp, "serve", "--unix", sock, "--workers", "1"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 30
        while not os.path.exists(sock):
            if server.poll() is not None or time.monotonic() > deadline:
                raise AssertionError("server did not start:\n%s" %
                                     server.stderr.read())
            time.sleep(0.05)
        client = run(privhp, "ingest", "--unix", sock, "--artifact", "a",
                     "--in", csv, "--dim", "1", "--n", str(PLAN_N))
        server.send_signal(signal.SIGINT)
        _, err = server.communicate(timeout=60)
        if server.returncode != 0:
            raise AssertionError("serve failed (%d):\n%s" %
                                 (server.returncode, err))
        return peak_rss_mib("serve", err), client
    finally:
        if server.returncode is None:
            server.kill()
            server.wait()


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    privhp = argv[1]
    peaks = {}  # process -> [peak RSS at each size]
    with tempfile.TemporaryDirectory() as tmp:
        for count in SIZES:
            csv = os.path.join(tmp, "data.csv")
            write_csv(csv, count)
            for threads in (1, 4):
                rss = run(privhp, "build", "--in", csv, "--dim", "1",
                          "--n", str(PLAN_N), "--threads", str(threads),
                          "--out", os.path.join(tmp, "gen.tree"))
                peaks.setdefault("build --threads %d" % threads,
                                 []).append(rss)
            server, client = ingest_session(privhp, tmp, csv)
            peaks.setdefault("serve (INGEST)", []).append(server)
            peaks.setdefault("ingest client", []).append(client)
    failed = []
    for name, (small, large) in sorted(peaks.items()):
        growth = large - small
        print("%-18s peak RSS %6.1f MiB at 2^14, %6.1f MiB at 2^20 "
              "(growth %+.1f MiB)" % (name, small, large, growth))
        if growth > SLACK_MIB:
            failed.append(name)
    if failed:
        print("peak RSS grew by more than %.1f MiB with the stream length: "
              "%s" % (SLACK_MIB, ", ".join(failed)), file=sys.stderr)
        return 1
    print("cli.bounded_memory: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
