#!/usr/bin/env python3
"""privhp_lint: repo-specific invariant linter for the PrivHP tree.

Enforces rules no generic tool knows about (see docs/ARCHITECTURE.md,
"Static analysis & concurrency contracts", for the catalog and how to
extend it):

  PHL001  wire-count allocation discipline
          In the wire decoders (service/protocol.cc, service/client.cc),
          any reserve()/resize() whose size is fed by a peer-controlled
          wire read (U8/U32/U64/Double) must flow through
          WireReader::BoundedCount() (or an explicit std::min clamp), so
          a 13-byte frame can never command a multi-gigabyte allocation.

  PHL002  correctly-rounded SIMD only
          The AVX2/AVX-512 kernel TUs may not use non-correctly-rounded
          intrinsics (fmadd/fmsub/fnmadd/fnmsub, rcp, rsqrt) or
          std::fma: the batched-vs-scalar bit-equality gates require
          every kernel tier to round exactly like the scalar reference.

  PHL003  RNG discipline
          No rand()/srand(), std::random_device, drand48, or
          time(0)-style seeding outside src/common/random.* — sampler
          determinism (seeded SAMPLE reproducibility, bit-identity
          gates) depends on every draw coming from RandomEngine.

  PHL004  annotated mutexes only
          No naked std::mutex / lock_guard / unique_lock /
          condition_variable (etc.) outside src/common/sync.h: all
          locking goes through the thread-safety-annotated wrappers so
          Clang's -Wthread-safety sees every contract.

  PHL005  no metric reveals the stream length
          In the metrics code (service/, obs/), no metric may be fed
          from num_processed(), num_received(), num_batches() or
          bytes_received(),
          directly or through a variable assigned from one: an INGEST's
          point, frame or byte count is the un-noised stream length
          (sensitivity 1), and only plan parameters and post-processing
          of the release may be exported. A statement is a metric sink
          when it names metrics_, a bytes_in/bytes_out field, or calls
          ->Add/Inc/Record/Set.

  PHL006  column limit
          No line may be longer than the ColumnLimit of the nearest
          .clang-format (80 under the repo's Google style; columns are
          characters, so a UTF-8 em dash counts as one). The blocking
          clang-format CI job rejects such lines, and this rule catches
          them where no clang-format binary is installed. #include lines
          are exempt, as clang-format never breaks them.

  PHL007  one point currency
          In the ingest layers (io/, domain/, core/), no AddAll,
          AddBatch, AddRange, NextBatch or ValidateBatch may take a
          std::vector<Point> or a const Point* batch: PointBatch is the
          only batch type there. Code that holds vectors of points
          (eval/, baselines/) converts with PointBatch::FromPoints/
          ToPoints. Nor may the per-point stream surface come back:
          points travel through PointSource::NextBatch and
          PointSink::AddAll only, so no Add(Point&&) is declared, and
          no Next(Point*) is an override, a pure virtual or an
          out-of-class definition (PointSource's protected default,
          kept while perfbench/ still overrides it, is none of these).
          Add(const Point&) is PrivHPShard's and PrivHPBuilder's scalar
          reference, not part of either interface.

  PHL008  socket-free handlers
          service/handlers.{h,cc} may not include io/frame_socket.h or
          service/event_loop.h, and may not name Socket, Connection or
          EnqueueFrame: a handler maps a parsed request to its reply,
          and only the server's worker turns that reply into a frame.

  PHL009  one socket I/O seam
          ::send, ::sendmsg, ::recv, ::recvmsg, ::writev and ::readv
          appear only in io/frame_socket.cc: every byte on a connection
          goes through a FrameReader/FrameWriter (the reactor's, the
          client's, and the reactor's writer again when a worker writes
          its own reply), so a fault-injection wrapper has one file to
          cover. Tests (*_test.cc), which hand-craft torn frames, are
          exempt.

  PHL010  no test-only headers in src/
          A src/ header must be included by a file under src/, tools/,
          bench/, examples/ or perfbench/ (paths taken from --root), its
          own .cc excepted: a header only tests include is code the
          system does not ship.

Also provides --check-tidy-config, which validates .clang-tidy: every
disabled check must carry a documented reason comment (the per-check
opt-outs are part of the reviewable contract, not silent suppressions).

Stdlib-only; exits nonzero iff any violation (or config error) is found.
"""

import argparse
import os
import re
import sys

# ---------------------------------------------------------------------------
# Source preprocessing: strip comments and string/char literals so
# documentation ("no naked std::mutex...") and log messages never trip a
# rule. Newlines are preserved so reported line numbers stay exact.
# ---------------------------------------------------------------------------


def strip_comments_and_strings(text):
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif c == '"' or c == "'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":
                    out.append("\n")  # unterminated; keep line count sane
                i += 1
            i += 1
            out.append('""' if quote == '"' else "''")
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: %s: %s" % (self.path, self.line, self.rule,
                                  self.message)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


# ---------------------------------------------------------------------------
# PHL001: wire-count-fed reserve/resize must flow through BoundedCount.
# ---------------------------------------------------------------------------

# Taint sources: raw wire reads of a count-sized scalar.
WIRE_READ_RE = re.compile(r"\.\s*(?:U8|U32|U64|Double)\s*\(")
# Sanitizers: the canonical bounded-count read, or an explicit clamp.
SANITIZER_RE = re.compile(r"\.\s*BoundedCount\s*\(|std::min\b")

ASSIGN_OR_RETURN_RE = re.compile(
    r"PRIVHP_ASSIGN_OR_RETURN\s*\(\s*(?:const\s+)?[\w:<>\s]*?(\w[\w.\->]*)\s*,"
    r"\s*(.+?)\)\s*;", re.S)
PLAIN_ASSIGN_RE = re.compile(
    r"(?:^|[;{}])\s*(?:const\s+)?(?:[\w:<>]+\s+)?(\w[\w.\->]*)\s*=\s*"
    r"([^;]+);", re.S)
RESERVE_RE = re.compile(r"(?:\.|->)\s*(reserve|resize)\s*\(")


def extract_call_arg(text, open_paren_pos):
    """Returns (argument_text, end_pos) for a call's parenthesized args."""
    depth = 0
    i = open_paren_pos
    while i < len(text):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren_pos + 1:i], i
        i += 1
    return text[open_paren_pos + 1:], len(text)


def check_wire_counts(path, text):
    violations = []
    # Walk the file once, in order, tracking which simple identifiers
    # currently hold a raw wire-read value (tainted) vs a BoundedCount /
    # clamped value (sanitized). Ordering matters: the same name (e.g.
    # `count`) is reused across decoder functions.
    events = []  # (pos, kind, payload)
    for m in ASSIGN_OR_RETURN_RE.finditer(text):
        events.append((m.start(), "assign", (m.group(1), m.group(2))))
    for m in PLAIN_ASSIGN_RE.finditer(text):
        events.append((m.start(), "assign", (m.group(1), m.group(2))))
    for m in RESERVE_RE.finditer(text):
        arg, _ = extract_call_arg(text, m.end() - 1)
        events.append((m.start(), "alloc", (m.group(1), arg)))
    events.sort(key=lambda e: e[0])

    tainted = set()
    for pos, kind, payload in events:
        if kind == "assign":
            name, expr = payload
            name = name.split(".")[0].split("->")[0]
            if SANITIZER_RE.search(expr):
                tainted.discard(name)
            elif WIRE_READ_RE.search(expr):
                tainted.add(name)
            # otherwise: leave the name's state alone (arithmetic on a
            # tainted count stays the caller's problem only if it feeds
            # an allocation through the same name).
        else:
            func, arg = payload
            if SANITIZER_RE.search(arg):
                continue
            if WIRE_READ_RE.search(arg):
                violations.append(Violation(
                    path, line_of(text, pos), "PHL001",
                    "%s() sized directly by a raw wire read; use "
                    "WireReader::BoundedCount()" % func))
                continue
            arg_ids = set(re.findall(r"\b\w+\b", arg))
            bad = sorted(arg_ids & tainted)
            if bad:
                violations.append(Violation(
                    path, line_of(text, pos), "PHL001",
                    "%s(%s) sized by unbounded wire-read count '%s'; "
                    "read it via WireReader::BoundedCount() instead" %
                    (func, arg.strip(), bad[0])))
    return violations


# ---------------------------------------------------------------------------
# PHL002: correctly-rounded intrinsics only in the SIMD kernel TUs.
# ---------------------------------------------------------------------------

FORBIDDEN_INTRINSIC_RE = re.compile(
    r"\b(_mm\w*_(?:fmadd|fmsub|fnmadd|fnmsub|rcp|rsqrt)\w*)\s*\(|"
    r"\b(std::fmaf?)\b|(?:^|[^\w:.])(fmaf?)\s*\(")


def check_simd_rounding(path, text):
    violations = []
    for m in FORBIDDEN_INTRINSIC_RE.finditer(text):
        name = m.group(1) or m.group(2) or m.group(3)
        violations.append(Violation(
            path, line_of(text, m.start()), "PHL002",
            "'%s' is not correctly rounded; SIMD kernels must stay "
            "bit-identical to the scalar reference (add/sub/mul/div/"
            "cmp/gather only)" % name))
    return violations


# ---------------------------------------------------------------------------
# PHL003: RNG discipline outside common/random.*.
# ---------------------------------------------------------------------------

FORBIDDEN_RNG_RE = re.compile(
    r"\b(std::random_device)\b|"
    r"(?:^|[^\w:.])(s?rand)\s*\(|"
    r"\b(drand48|lrand48|mrand48)\s*\(|"
    r"(?:^|[^\w:.])(time)\s*\(\s*(?:0|NULL|nullptr)?\s*\)")


def check_rng_discipline(path, text):
    violations = []
    for m in FORBIDDEN_RNG_RE.finditer(text):
        name = next(g for g in m.groups() if g)
        violations.append(Violation(
            path, line_of(text, m.start()), "PHL003",
            "'%s' breaks sampler determinism; all randomness must come "
            "from common/random.h RandomEngine (seeded, forkable)" % name))
    return violations


# ---------------------------------------------------------------------------
# PHL004: annotated mutexes only (common/sync.h wrappers).
# ---------------------------------------------------------------------------

NAKED_MUTEX_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b")


def check_naked_mutex(path, text):
    violations = []
    for m in NAKED_MUTEX_RE.finditer(text):
        violations.append(Violation(
            path, line_of(text, m.start()), "PHL004",
            "naked std::%s; use the thread-safety-annotated Mutex/"
            "MutexLock/CondVar wrappers from common/sync.h" % m.group(1)))
    return violations


# ---------------------------------------------------------------------------
# PHL005: no metric is fed from a stream-length read.
# ---------------------------------------------------------------------------

STREAM_LENGTH_RE = re.compile(
    r"\b(num_processed|num_received|num_batches|bytes_received)\s*\(\s*\)")
METRIC_SINK_RE = re.compile(
    r"\bmetrics_\b|\bbytes_(?:in|out)\b|->\s*(?:Add|Inc|Record|Set)\s*\(")
STATEMENT_RE = re.compile(r"[^;{}]+")
ASSIGNED_RE = re.compile(r"(\w+)\s*(?:=|\{)\s*[^=]")


def check_stream_length_metrics(path, text):
    violations = []
    tainted = {}  # variable -> the read it was assigned from
    for stmt in STATEMENT_RE.finditer(text):
        body = stmt.group(0)
        read = STREAM_LENGTH_RE.search(body)
        if read and not METRIC_SINK_RE.search(body):
            lhs = ASSIGNED_RE.search(body[:read.start()])
            if lhs:
                tainted[lhs.group(1)] = read.group(1)
            continue
        if not METRIC_SINK_RE.search(body):
            continue
        source = read.group(1) if read else None
        if source is None:
            for name, origin in tainted.items():
                if re.search(r"\b%s\b" % re.escape(name), body):
                    source = origin
                    break
        if source:
            violations.append(Violation(
                path, line_of(text, stmt.start() + len(body) -
                              len(body.lstrip())), "PHL005",
                "metric fed from %s(); an INGEST's point, frame and byte "
                "counts are the un-noised stream length" % source))
    return violations


# ---------------------------------------------------------------------------
# PHL006: no line longer than the nearest .clang-format's ColumnLimit.
# ---------------------------------------------------------------------------

# Google style, which the repo's .clang-format is based on, uses 80.
DEFAULT_COLUMN_LIMIT = 80
COLUMN_LIMIT_RE = re.compile(r"^ColumnLimit:\s*(\d+)\s*$", re.M)
_column_limits = {}


def column_limit_in(directory):
    """ColumnLimit of the .clang-format clang-format would use for a file
    in directory: the nearest one in it or above it."""
    if directory in _column_limits:
        return _column_limits[directory]
    config = os.path.join(directory, ".clang-format")
    parent = os.path.dirname(directory)
    if os.path.isfile(config):
        with open(config, "r", encoding="utf-8") as f:
            m = COLUMN_LIMIT_RE.search(f.read())
        limit = int(m.group(1)) if m else DEFAULT_COLUMN_LIMIT
    elif parent == directory:
        limit = None  # no .clang-format anywhere above: no limit to check
    else:
        limit = column_limit_in(parent)
    _column_limits[directory] = limit
    return limit


def check_column_limit(path, raw, limit):
    violations = []
    for number, line in enumerate(raw.splitlines(), 1):
        if len(line) > limit and not line.startswith("#include"):
            violations.append(Violation(
                path, number, "PHL006",
                "line is %d columns, over the .clang-format ColumnLimit "
                "of %d" % (len(line), limit)))
    return violations


# ---------------------------------------------------------------------------
# PHL007: PointBatch is the only batch currency in the ingest layers.
# ---------------------------------------------------------------------------

BATCH_ENTRY_RE = re.compile(
    r"\b(AddAll|AddBatch|AddRange|NextBatch|ValidateBatch)\s*\(")
POINT_BATCH_PARAM_RE = re.compile(
    r"std::vector\s*<\s*Point\s*>|\bconst\s+Point\s*\*")


PER_POINT_NEXT_RE = re.compile(r"(::\s*)?\bNext\s*\(\s*Point\s*\*")
PER_POINT_MOVE_ADD_RE = re.compile(r"\bAdd\s*\(\s*Point\s*&&")
# What follows a declaration's parameter list when it overrides or
# requires the method: `override`, `final` or a pure `= 0`.
OVERRIDE_OR_PURE_RE = re.compile(
    r"^[^;{]*?\b(override|final)\b|^[^;{]*=\s*0\b")


def check_point_currency(path, text):
    violations = []
    for m in PER_POINT_NEXT_RE.finditer(text):
        _, end = extract_call_arg(text, text.index("(", m.start()))
        if m.group(1) or OVERRIDE_OR_PURE_RE.search(text[end + 1:]):
            violations.append(Violation(
                path, line_of(text, m.start()), "PHL007",
                "per-point Next(Point*); sources hand out points through "
                "NextBatch(PointBatch*)"))
    for m in PER_POINT_MOVE_ADD_RE.finditer(text):
        violations.append(Violation(
            path, line_of(text, m.start()), "PHL007",
            "per-point Add(Point&&); sinks take points through "
            "AddAll(const PointBatch&)"))
    for m in BATCH_ENTRY_RE.finditer(text):
        params, _ = extract_call_arg(text, m.end() - 1)
        p = POINT_BATCH_PARAM_RE.search(params)
        if p:
            violations.append(Violation(
                path, line_of(text, m.start()), "PHL007",
                "%s takes '%s'; PointBatch is the only batch type in the "
                "ingest layers (convert with PointBatch::FromPoints)" %
                (m.group(1), " ".join(p.group(0).split()))))
    return violations


# ---------------------------------------------------------------------------
# PHL008: the request handlers never see a socket or a connection.
# ---------------------------------------------------------------------------

SOCKET_INCLUDE_RE = re.compile(
    r'^[ \t]*#[ \t]*include[ \t]*'
    r'"(io/frame_socket\.h|service/event_loop\.h)"', re.M)
SOCKET_NAME_RE = re.compile(r"\b(Socket|Connection|EnqueueFrame)\b")


def check_socket_free(path, raw, text):
    violations = []
    for m in SOCKET_INCLUDE_RE.finditer(raw):
        violations.append(Violation(
            path, line_of(raw, m.start()), "PHL008",
            "handlers include '%s'; they map a parsed request to its "
            "reply and never see a socket" % m.group(1)))
    for m in SOCKET_NAME_RE.finditer(text):
        violations.append(Violation(
            path, line_of(text, m.start()), "PHL008",
            "handlers name '%s'; only the server's worker turns a reply "
            "into a frame on a connection" % m.group(1)))
    return violations


# ---------------------------------------------------------------------------
# PHL009: raw socket I/O calls live in io/frame_socket.cc only.
# ---------------------------------------------------------------------------

RAW_SOCKET_IO_RE = re.compile(
    r"(?<![\w:])::\s*(send|sendmsg|recv|recvmsg|writev|readv)\s*\(")


def check_socket_io_seam(path, text):
    violations = []
    for m in RAW_SOCKET_IO_RE.finditer(text):
        violations.append(Violation(
            path, line_of(text, m.start()), "PHL009",
            "::%s outside io/frame_socket.cc; send and receive through "
            "a FrameReader/FrameWriter" %
            m.group(1)))
    return violations


# ---------------------------------------------------------------------------
# PHL010: every src/ header has an includer outside the tests.
# ---------------------------------------------------------------------------

# The directories, under the repo root, whose includes keep a src/
# header alive. tests/ is not one of them.
SHIPPED_DIRS = ("src", "tools", "bench", "examples", "perfbench")
QUOTED_INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*"([^"]+)"', re.M)
_shipped_includers = {}


def shipped_includers(root):
    """Maps each quoted #include path to the set of files under root's
    SHIPPED_DIRS that include it (absolute paths)."""
    root = os.path.abspath(root)
    if root not in _shipped_includers:
        includers = {}
        for top in SHIPPED_DIRS:
            for path in collect_sources(os.path.join(root, top)):
                with open(path, "r", encoding="utf-8", errors="replace") as f:
                    raw = f.read()
                for m in QUOTED_INCLUDE_RE.finditer(raw):
                    includers.setdefault(m.group(1), set()).add(
                        os.path.abspath(path))
        _shipped_includers[root] = includers
    return _shipped_includers[root]


def check_shipped_header(path, display_path, root):
    header = os.path.abspath(path)
    name = norm(os.path.relpath(header, os.path.join(
        os.path.abspath(root), "src")))
    own_source = os.path.splitext(header)[0] + ".cc"
    if shipped_includers(root).get(name, set()) - {own_source}:
        return []
    return [Violation(
        display_path, 1, "PHL010",
        "no file under %s includes \"%s\" (its own .cc aside); delete "
        "the header or move it under tests/" %
        ("/, ".join(SHIPPED_DIRS) + "/", name))]


# ---------------------------------------------------------------------------
# Rule routing: which rules apply to which paths.
# ---------------------------------------------------------------------------


def norm(path):
    return path.replace(os.sep, "/")


def is_wire_decoder(path):
    p = norm(path)
    return p.endswith("service/protocol.cc") or p.endswith("service/client.cc")


def is_simd_kernel(path):
    base = os.path.basename(path)
    return re.fullmatch(r"simd_avx\w*\.cc", base) is not None


def is_random_impl(path):
    p = norm(path)
    return "common/random." in p


def is_sync_header(path):
    return norm(path).endswith("common/sync.h")


def is_request_handler(path):
    return re.search(r"service/handlers\.(h|cc)$", norm(path)) is not None


def is_socket_io_seam(path):
    return norm(path).endswith("io/frame_socket.cc")


def is_test_file(path):
    return norm(path).endswith("_test.cc")


def is_src_header(path, root):
    src = os.path.join(os.path.abspath(root), "src")
    return (path.endswith(".h") and
            os.path.commonpath([os.path.abspath(path), src]) == src)


def is_metrics_layer(path):
    parent = os.path.basename(os.path.dirname(os.path.abspath(path)))
    return parent in ("service", "obs")


def is_ingest_layer(path):
    parent = os.path.basename(os.path.dirname(os.path.abspath(path)))
    return parent in ("io", "domain", "core")


def lint_file(path, root, display_path=None):
    display_path = display_path or path
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            raw = f.read()
    except OSError as e:
        return [Violation(display_path, 0, "PHL000", "unreadable: %s" % e)]
    text = strip_comments_and_strings(raw)
    violations = []
    if is_wire_decoder(path):
        violations += check_wire_counts(display_path, text)
    if is_simd_kernel(path):
        violations += check_simd_rounding(display_path, text)
    if not is_random_impl(path):
        violations += check_rng_discipline(display_path, text)
    if not is_sync_header(path):
        violations += check_naked_mutex(display_path, text)
    if is_metrics_layer(path):
        violations += check_stream_length_metrics(display_path, text)
    if is_ingest_layer(path):
        violations += check_point_currency(display_path, text)
    if is_request_handler(path):
        violations += check_socket_free(display_path, raw, text)
    if not is_socket_io_seam(path) and not is_test_file(path):
        violations += check_socket_io_seam(display_path, text)
    if is_src_header(path, root):
        violations += check_shipped_header(path, display_path, root)
    limit = column_limit_in(os.path.dirname(os.path.abspath(path)))
    if limit is not None:
        violations += check_column_limit(display_path, raw, limit)
    return violations


def collect_sources(root, pruned=()):
    """C++ sources under root, skipping the directories in `pruned`
    (absolute paths) below it. Name a pruned directory as the root to
    lint it."""
    pruned = {os.path.abspath(p) for p in pruned}
    sources = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [
            d for d in dirnames
            if os.path.abspath(os.path.join(dirpath, d)) not in pruned]
        for name in sorted(filenames):
            if name.endswith((".cc", ".h")):
                sources.append(os.path.join(dirpath, name))
    return sorted(sources)


# ---------------------------------------------------------------------------
# .clang-tidy validation: every disabled check needs a documented reason.
# ---------------------------------------------------------------------------

def check_tidy_config(path):
    errors = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return ["%s: unreadable: %s" % (path, e)]

    # Reasons live as comment lines of the form "#   -check-name: reason"
    # (YAML comments cannot sit inside the Checks scalar itself).
    documented = set()
    for line in lines:
        m = re.match(r"\s*#\s*(-[\w.*-]+)\s*:\s*\S", line)
        if m:
            documented.add(m.group(1).lstrip("-"))

    # The Checks value: a single (possibly multi-line '>'-folded) scalar.
    text = "\n".join(l for l in lines if not l.lstrip().startswith("#"))
    m = re.search(r"^Checks:\s*(.*?)(?=^\w|\Z)", text, re.S | re.M)
    if not m:
        return ["%s: no Checks: key found" % path]
    checks_value = m.group(1).replace(">", " ").replace("'", " ").replace(
        '"', " ")
    entries = [e.strip() for e in checks_value.split(",") if e.strip()]
    if not entries:
        errors.append("%s: Checks list is empty" % path)

    enabled = [e for e in entries if not e.startswith("-")]
    disabled = [e.lstrip("-") for e in entries if e.startswith("-")]
    if not any(e.startswith("bugprone") for e in enabled):
        errors.append("%s: curated set must enable bugprone-* checks" % path)
    for check in disabled:
        if check == "*":
            continue  # the leading blanket reset needs no per-check reason
        if check not in documented:
            errors.append(
                "%s: disabled check '-%s' has no documented reason "
                "(add a '#   -%s: <why>' comment line)" %
                (path, check, check))

    if not re.search(r"^WarningsAsErrors:", text, re.M):
        errors.append("%s: WarningsAsErrors: missing (the gate must be "
                      "blocking)" % path)
    return errors


def main(argv):
    parser = argparse.ArgumentParser(
        description="PrivHP repo-specific invariant linter")
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: <root>/src)")
    parser.add_argument(
        "--root", default=os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))),
        help="repo root (default: parent of this script)")
    parser.add_argument(
        "--check-tidy-config", metavar="FILE", nargs="?",
        const="DEFAULT", default=None,
        help="validate a .clang-tidy file (default: <root>/.clang-tidy) "
             "instead of linting sources")
    args = parser.parse_args(argv)

    if args.check_tidy_config is not None:
        tidy_path = (os.path.join(args.root, ".clang-tidy")
                     if args.check_tidy_config == "DEFAULT"
                     else args.check_tidy_config)
        errors = check_tidy_config(tidy_path)
        for e in errors:
            print(e, file=sys.stderr)
        if not errors:
            print("%s: OK" % tidy_path)
        return 1 if errors else 0

    targets = args.paths or [os.path.join(args.root, "src")]
    # The linter's own seeded corpus, which tools/format.sh prunes too.
    pruned = [os.path.join(args.root, "tests", "tools", "fixtures")]
    files = []
    for target in targets:
        if os.path.isdir(target):
            files.extend(collect_sources(target, pruned))
        else:
            files.append(target)

    violations = []
    for path in files:
        violations.extend(lint_file(path, args.root))
    for v in violations:
        print(v, file=sys.stderr)
    if violations:
        print("privhp_lint: %d violation(s) in %d file(s) scanned" %
              (len(violations), len(files)), file=sys.stderr)
        return 1
    print("privhp_lint: OK (%d files scanned)" % len(files))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
