#!/usr/bin/env python3
"""Golden release bytes: `privhp` outputs must hash to committed SHA-256s.

Writes two CSVs from a 64-bit LCG with integer arithmetic only (each
coordinate is a 53-bit integer scaled by 2^-53, an exact division, and
written with `repr`, so the bytes do not depend on the Python version):

  * uniform1d: 40,000 uniform 1-D points, built at --k 32 --n 8388608
    (the shipped 2^23 plan: L* = 15, L = 23), so every shard window
    holds mostly distinct keys;
  * skewed2d: 30,000 2-D points whose coordinates are cubes of uniforms
    (skewed toward the origin), built at the default plan.

Then it hashes, and compares with golden_release.sha256 beside this
script:

  * `privhp build` of each CSV at --threads 1, 3 and 4;
  * the uniform1d build (--threads 1) under PRIVHP_SIMD_LEVEL=scalar and
    =avx2 (a level above the host's is capped to it);
  * `privhp pack` of each tree at --page-size 4096 and 65536;
  * the tree that one `privhp ingest` of uniform1d into a `privhp serve`
    publishes, read back with `query --export`.

Every release draws its Laplace noise through libm's `log`, so until
the noise is exact the goldens depend on libm too. A mismatch between
compilers, SIMD tiers or libm builds is a finding to fix in the code or
the flags, not a reason to loosen this test. An intended release change
updates golden_release.sha256 in one reviewed diff.

Stdlib-only. Usage: cli_golden_release.py PATH_TO_PRIVHP [--print]
(ctest runs it as cli.golden_release; --print writes the hashes in the
golden file's format instead of checking them).
"""

import hashlib
import os
import subprocess
import sys
import tempfile
import time

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_release.sha256")


def lcg(seed):
    """Yields 53-bit integers from Knuth's MMIX 64-bit LCG."""
    state = seed
    while True:
        state = (6364136223846793005 * state +
                 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        yield state >> 11


def write_csv(path, rows):
    with open(path, "w") as f:
        f.write("# golden release data\n")
        for row in rows:
            f.write(",".join(repr(v / 2.0 ** 53) for v in row) + "\n")


def uniform1d(n):
    draws = lcg(1)
    return ([next(draws)] for _ in range(n))


def skewed2d(n):
    draws = lcg(2)
    for _ in range(n):
        yield [(u * u * u) >> 106 for u in (next(draws), next(draws))]


def run(privhp, args, env=None):
    proc = subprocess.run([privhp] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120,
                          env=env)
    if proc.returncode != 0:
        raise AssertionError("privhp %s failed:\n%s" %
                             (" ".join(args), proc.stderr))
    return proc


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def release_hashes(privhp, tmp):
    """Runs every pinned command and returns {output name: sha256}."""
    inputs = {
        "uniform1d": (uniform1d(40000), ["--dim", "1", "--k", "32",
                                         "--n", "8388608"]),
        "skewed2d": (skewed2d(30000), ["--dim", "2"]),
    }
    hashes = {}
    for name, (rows, plan) in inputs.items():
        csv = os.path.join(tmp, name + ".csv")
        write_csv(csv, rows)
        for threads in (1, 3, 4):
            tree = os.path.join(tmp, "%s.t%d.tree" % (name, threads))
            run(privhp, ["build", "--in", csv, "--out", tree,
                         "--threads", str(threads)] + plan)
            hashes["build.%s.threads%d" % (name, threads)] = sha256(tree)
        tree = os.path.join(tmp, name + ".t1.tree")
        for page_size in (4096, 65536):
            packed = os.path.join(tmp, "%s.p%d.phx" % (name, page_size))
            run(privhp, ["pack", "--tree", tree, "--out", packed,
                         "--page-size", str(page_size)])
            hashes["pack.%s.page%d" % (name, page_size)] = sha256(packed)

    csv = os.path.join(tmp, "uniform1d.csv")
    plan = inputs["uniform1d"][1]
    for level in ("scalar", "avx2"):
        env = dict(os.environ, PRIVHP_SIMD_LEVEL=level)
        tree = os.path.join(tmp, "uniform1d.%s.tree" % level)
        run(privhp, ["build", "--in", csv, "--out", tree] + plan, env=env)
        hashes["build.uniform1d.simd_%s" % level] = sha256(tree)

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
        run(privhp, ["ingest", "--unix", sock, "--artifact", "uniform1d",
                     "--in", csv] + plan)
        exported = os.path.join(tmp, "uniform1d.export.tree")
        run(privhp, ["query", "--unix", sock, "--artifact", "uniform1d",
                     "--export", exported])
        hashes["ingest.uniform1d.export"] = sha256(exported)
    finally:
        server.terminate()
        server.wait(timeout=30)
    return hashes


def read_golden():
    golden = {}
    with open(GOLDEN) as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                digest, name = line.split()
                golden[name] = digest
    return golden


def main(argv):
    if len(argv) not in (2, 3) or (len(argv) == 3 and argv[2] != "--print"):
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        hashes = release_hashes(argv[1], tmp)
    if len(argv) == 3:
        for name in sorted(hashes):
            print("%s  %s" % (hashes[name], name))
        return 0
    golden = read_golden()
    if sorted(golden) != sorted(hashes):
        raise AssertionError("golden names %s != computed names %s" %
                             (sorted(golden), sorted(hashes)))
    wrong = [name for name in sorted(hashes) if hashes[name] != golden[name]]
    if wrong:
        raise AssertionError("release bytes changed:\n" + "\n".join(
            "  %s: %s, golden %s" % (name, hashes[name], golden[name])
            for name in wrong))
    print("cli.golden_release: %d outputs match" % len(hashes))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
