#!/usr/bin/env python3
"""End-to-end smoke test of `privhp ingest` against `privhp serve`.

Starts a server on a Unix socket in a temp directory and checks that

  * an unsized ingest (no --n) of a seeded 1-D CSV publishes its
    artifact;
  * an unsized ingest of a CSV with a malformed row fails with that
    row's line number and publishes nothing.

Stdlib-only. Usage: cli_ingest_smoke.py PATH_TO_PRIVHP
(ctest runs it as cli.ingest_smoke).
"""

import os
import random
import subprocess
import sys
import tempfile
import time


def run(privhp, *args):
    return subprocess.run([privhp] + list(args), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=60)


def listed(privhp, sock):
    proc = run(privhp, "query", "--unix", sock, "--list")
    if proc.returncode != 0:
        raise AssertionError("query --list failed:\n%s" % proc.stderr)
    return proc.stdout.split()


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    privhp = argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        sock = os.path.join(tmp, "privhp.sock")
        server = subprocess.Popen(
            [privhp, "serve", "--unix", sock, "--workers", "2"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 30
            while not os.path.exists(sock):
                if server.poll() is not None or time.monotonic() > deadline:
                    raise AssertionError("server did not start:\n%s" %
                                         server.stderr.read())
                time.sleep(0.05)

            good = os.path.join(tmp, "good.csv")
            rng = random.Random(1)
            with open(good, "w") as f:
                f.write("# seeded smoke data\n")
                for _ in range(5000):
                    f.write(repr(rng.betavariate(2, 5)) + "\n")
            proc = run(privhp, "ingest", "--unix", sock, "--artifact", "good",
                       "--in", good, "--dim", "1", "--k", "16")
            if proc.returncode != 0 or "ingested 5000 points" not in \
                    proc.stderr:
                raise AssertionError("unsized ingest failed:\n%s" %
                                     proc.stderr)
            if "good" not in listed(privhp, sock):
                raise AssertionError("ingest did not publish 'good'")

            # Line 1 is a comment, so the bad row is line 5 of the file.
            bad = os.path.join(tmp, "bad.csv")
            with open(bad, "w") as f:
                f.write("# header\n0.1\n0.2\n0.3\nnot-a-number\n0.4\n")
            proc = run(privhp, "ingest", "--unix", sock, "--artifact", "bad",
                       "--in", bad, "--dim", "1")
            if proc.returncode == 0 or "(line 5)" not in proc.stderr:
                raise AssertionError(
                    "malformed row not reported with its line number:\n%s" %
                    proc.stderr)
            names = listed(privhp, sock)
            if "bad" in names:
                raise AssertionError("failed ingest published 'bad'")
            if names != ["good"]:
                raise AssertionError("unexpected artifacts: %s" % names)
        finally:
            server.terminate()
            server.wait(timeout=30)
    print("cli.ingest_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
