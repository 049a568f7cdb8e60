"""The three workloads: one closed-loop client in one process each.

A workload generates its inputs from the seed when it is built, loads
what its first operation needs in ``setup``, and then runs identical
rounds of operations.  Every operation is timed on its own and checked
right after, outside its timer, against expectations computed by
``ref`` from the generated inputs.
"""

from __future__ import annotations

import json
import os
import time

import gen
import probe
import ref


class Tally:
    """Per-run outcomes: each operation's timings, and failures.

    Rounds repeat the same operations, so every operation is timed once
    per round.  The machine is shared: other work on the host slows a
    round down by varying amounts, never speeds it up, so each
    operation's fastest time over the rounds is its cost with the least
    interference, and the end-to-end metrics are built from those.
    """

    def __init__(self):
        self.times = {}
        self.codec = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, op, seconds, codec=None):
        """Record one run of operation ``op``.

        ``codec`` is None or (encode_s, decode_s, symbols, body_bits) of
        the round trip the operation holds.
        """
        self.times.setdefault(op, []).append(seconds)
        if codec is not None:
            encode_s, decode_s, n, body_bits = codec
            best = self.codec.get(op)
            if best is not None:
                encode_s = min(encode_s, best[0])
                decode_s = min(decode_s, best[1])
            self.codec[op] = (encode_s, decode_s, n, body_bits)

    def best(self):
        """Each operation's fastest time, in the order first run."""
        return [min(t) for t in self.times.values()]

    def check(self, what, reason):
        """Count one checked outcome; ``reason`` is None when it was right."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{what}: {reason}")


def bits_text(bits):
    """Text of a package BitString, read from its public fields."""
    return format(bits.value, f"0{bits.length}b") if bits.length else ""


def pinned_checks(aifv, tally):
    """The pinned outputs of acceptance criteria 1-4."""
    codec, examples = aifv.codec, aifv.examples
    ts = examples.binary_delay3_set()
    result = codec.encode(ts, [0, 1, 1, 0, 0])
    trace = codec.decode(ts, result.bits, 5)
    tally.check("criterion 1", None if bits_text(result.bits) == "10011"
                and trace.symbols == (0, 1, 1, 0, 0)
                else f"'a b b a a' -> {bits_text(result.bits)}")
    _, _, _, symbols, trees = aifv.formats.parse_conventional(
        examples.quaternary_aifv2_doc())
    result = codec.encode(aifv.transform.import_aifv2(trees, symbols),
                          [0, 2, 2, 0])
    tally.check("criterion 2", None if bits_text(result.bits) == "0111101"
                else f"'a c c a' -> {bits_text(result.bits)}")
    basic = aifv.transform.to_basic(examples.ternary_full_set())
    modes = [sorted(bits_text(w) for w in t.mode) for t in basic.trees]
    tally.check("criterion 3", None
                if modes == [[""], ["0", "10"], ["011", "10"]]
                else f"reduced modes {modes}")
    rate = aifv.analysis.expected_code_length(
        examples.skewed_delay3_set(), examples.skewed_distribution())
    tally.check("criterion 4", None if abs(rate - 0.6042) < 5e-5
                else f"expected code length {rate}")


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read(path, mode="r"):
    with open(path, mode) as fh:
        return fh.read()


class StreamLong:
    """CLI encode, binary container or ASCII bits, CLI decode; long messages.

    Each round encodes and decodes the same five messages of the skewed
    four-symbol set, at three lengths spanning 4x.  Four go through the
    binary container and one through ``decode --bits``.
    """

    name = "stream_long"
    tail_percentile = 75
    min_rounds = 8
    PLAN = [(25_000, "binary"), (25_000, "ascii"), (50_000, "binary"),
            (100_000, "binary"), (100_000, "binary")]

    def __init__(self, aifv, seed, tiny, work):
        self.aifv = aifv
        self.work = work
        scale = 50 if tiny else 1
        doc = aifv.formats.tree_set_to_doc(aifv.examples.skewed_delay3_set())
        self.set_path = os.path.join(work, "set.json")
        _write(self.set_path, json.dumps(doc))
        dist = aifv.examples.skewed_distribution()
        rng = gen.new_rng(seed, "stream_long")
        self.messages = []
        for i, (n, fmt) in enumerate(self.PLAN):
            n //= scale
            msg = gen.message(rng, dist, n)
            names = [doc["alphabet"][x] for x in msg]
            path = os.path.join(work, f"msg{i}.txt")
            _write(path, " ".join(names))
            body, term = ref.encode(doc, msg)
            self.messages.append((i, n, fmt, path, names, body, term))
        self.probe_spec = [{"doc": self.set_path}]

    def setup(self):
        # every CLI call loads and validates the set itself
        pass

    def run_round(self, tally, tracer):
        wall = 0.0
        main = self.aifv.cli.main
        for i, n, fmt, path, names, body, term in self.messages:
            if tracer is not None:
                tracer.op = f"{self.name}:{i}"
            enc = os.path.join(self.work, f"enc{i}.{fmt}")
            dec = os.path.join(self.work, f"dec{i}.txt")
            t0 = time.perf_counter()
            rc_enc = main(["encode", self.set_path, "--input", path,
                           "--output", enc, "--format", fmt])
            encode_s = time.perf_counter() - t0
            if fmt == "binary":
                argv = ["--input", enc]
            else:
                # the bits travel on the command line, read untimed
                argv = ["--bits", _read(enc).rstrip("\n"), "--length", str(n)]
            t1 = time.perf_counter()
            rc_dec = main(["decode", self.set_path, "--output", dec] + argv)
            decode_s = time.perf_counter() - t1
            if fmt == "binary":
                bits, count = ref.container(_read(enc, "rb")) or ("", -1)
            else:
                bits, count = argv[1], n
            wall += encode_s + decode_s
            tally.record(i, encode_s + decode_s,
                         (encode_s, decode_s, n, len(bits) - len(term)))
            reason = None
            if rc_enc != 0 or rc_dec != 0:
                reason = f"exit codes {rc_enc}, {rc_dec}"
            elif bits != body + term or count != n:
                reason = "encoded stream differs from the reference"
            elif _read(dec).split() != names:
                reason = "decoded symbols differ from the message"
            tally.check(f"message {i} ({n} symbols, {fmt})", reason)
        return wall


def _check_decode(doc, msg, stream, trace, error):
    """Failure reason for one decode of a clean or corrupted stream, or None.

    ``stream`` is the text of the bits handed to the decoder, or None
    when they were the encoder's own, clean output.
    """
    if stream is None:
        if error is not None:
            return f"clean stream raised {error!r}"
        return None if list(trace.symbols) == msg else "decoded wrong symbols"
    if error is not None:
        # only NoMatch and Truncated are caught; anything else propagates
        position = error.bit_position
        if position is None or not 0 <= position <= len(stream):
            return f"bit_position {position} outside the stream"
        return None
    if not ref.body_consumed_ok(doc, list(trace.symbols), stream,
                                trace.bits_consumed):
        return "decoded symbols do not re-encode to the consumed bits"
    return None


class StreamShort:
    """Library encode then decode of ~1000 short messages on six sets.

    The four example sets and two generated wide sets (M=64, M=256) are
    loaded and validated once, in set-up.  Message lengths are spread
    log-uniformly over 4-512 symbols for every set alike, and one stream
    in ten is corrupted, by a flipped bit or by truncation, before it is
    decoded.
    """

    name = "stream_short"
    tail_percentile = 99
    min_rounds = 5
    EXAMPLES = ["binary_delay3_set", "instantaneous_huffman_set",
                "ternary_full_set", "skewed_delay3_set"]

    def __init__(self, aifv, seed, tiny, work):
        self.aifv = aifv
        rng = gen.new_rng(seed, "stream_short")
        wide = [16, 32] if tiny else [64, 256]
        per_set, longest = (20, 64) if tiny else (168, 512)
        self.probe_spec = [{"example": name} for name in self.EXAMPLES]
        self.docs = [aifv.formats.tree_set_to_doc(
            getattr(aifv.examples, name)()) for name in self.EXAMPLES]
        for m in wide:
            doc = gen.valid_set_doc(rng, 2, m)
            path = os.path.join(work, f"wide{m}.json")
            _write(path, json.dumps(doc))
            self.probe_spec.append({"doc": path})
            self.docs.append(doc)
        plan = []
        for s, doc in enumerate(self.docs):
            m = len(doc["alphabet"])
            dist = aifv.examples.skewed_distribution() if m == 4 \
                else [1 / m] * m
            lengths = gen.log_uniform_lengths(rng, per_set, 4, longest)
            for j, n in enumerate(lengths):
                msg = gen.message(rng, dist, n)
                body, term = ref.encode(doc, msg)
                stream = None
                if j % 10 == 9 and body + term:
                    corrupt = gen.flip_bit if j % 20 == 9 else gen.truncate
                    stream = corrupt(rng, body + term)
                plan.append((s, msg, body, term, stream))
        rng.shuffle(plan)
        self.plan = plan

    def setup(self):
        aifv = self.aifv
        self.sets = probe.load_sets(aifv, self.probe_spec)
        make = aifv.bitstring.BitString
        self.ops = [(s, msg, body, term, stream,
                     None if stream is None
                     else make(int(stream, 2) if stream else 0, len(stream)))
                    for s, msg, body, term, stream in self.plan]

    def run_round(self, tally, tracer):
        codec = self.aifv.codec
        errors = (self.aifv.errors.NoMatch, self.aifv.errors.Truncated)
        wall = 0.0
        for i, (s, msg, body, term, stream, bits) in enumerate(self.ops):
            if tracer is not None:
                tracer.op = f"{self.name}:{i}"
            ts = self.sets[s]
            n = len(msg)
            trace = error = None
            t0 = time.perf_counter()
            result = codec.encode(ts, msg)
            t1 = time.perf_counter()
            try:
                trace = codec.decode(ts, result.bits if bits is None else bits,
                                     n)
            except errors as exc:
                error = exc
            t2 = time.perf_counter()
            wall += t2 - t0
            tally.record(i, t2 - t0, (t1 - t0, t2 - t1, n, result.body_len))
            reason = None
            if bits_text(result.bits) != body + term \
                    or result.body_len != len(body):
                reason = "encoded stream differs from the reference"
            else:
                reason = _check_decode(self.docs[s], msg, stream, trace, error)
            tally.check(f"set {s}, {n} symbols", reason)
        return wall


class Design:
    """Design jobs: check, convert and analyse generated code-tree sets.

    A round holds one job per (K trees, M symbols) cell of a fixed grid,
    a sixth of them broken by construction, plus long sparse word-set
    reductions and the package's example conversions.
    """

    name = "design"
    tail_percentile = 75
    min_rounds = 5
    MC_SYMBOLS = 20_000

    def __init__(self, aifv, seed, tiny, work):
        self.aifv = aifv
        rng = gen.new_rng(seed, "design")
        trees = range(1, 4) if tiny else range(1, 7)
        alphabets = (4, 8) if tiny else (4, 8, 16, 32, 64, 96)
        sample = 32 if tiny else 256
        # the diagonal cells are broken: one per tree count and one per
        # alphabet size, so every seed breaks the same amount of work
        cells = [(k, m, i == j) for i, k in enumerate(trees)
                 for j, m in enumerate(alphabets)]
        rng.shuffle(cells)
        self.jobs = []
        for j, (k, m, broken) in enumerate(cells):
            doc = gen.valid_set_doc(rng, k, m)
            if broken:
                doc, violations = gen.break_set_doc(rng, doc)
                self.jobs.append(("broken", doc, violations))
                continue
            dist = gen.dirichlet(rng, m)
            msg = gen.message(rng, dist, sample)
            mean, var = ref.rate_moments(doc, dist)
            self.jobs.append(("valid", doc, dict(
                dist=dist, seed=j, msg=msg, encoded=ref.encode(doc, msg),
                delay=ref.decoding_delay(doc), basic=ref.to_basic_text(doc),
                rate=mean, rate_tol=12 * (var / self.MC_SYMBOLS) ** 0.5
                + 1e-9 * max(1.0, mean))))
        longest = range(6, 9) if tiny else range(12, 19)
        for n in longest:
            # setup puts the package's own word set in job[2]
            self.jobs.append(("reduce", gen.sparse_word_set(rng, n), None))
        ex = aifv.examples
        # pinned encodings and rates from the acceptance criteria
        self.jobs += [
            ("import", ex.quaternary_aifv2_doc(),
             ({(0, 2, 2, 0): "0111101"}, None)),
            ("import", ex.quaternary_aifv3_doc(), ({}, None)),
            ("import", ex.skewed_aifv3_doc(),
             ({}, (ex.skewed_distribution(), 0.655))),
            ("vv", ex.pair_huffman_vv_doc(),
             ({(0, 0, 0): "000", (2, 0, 0, 1, 2): "100010100"}, None)),
            ("vv", ex.tunstall_vv_doc(),
             ({(1, 0, 1, 0): "1100", (0, 1, 0, 1, 0): "011101"}, None)),
        ]
        self.probe_spec = []

    def setup(self):
        make = self.aifv.bitstring.BitString
        for i, (kind, words, _) in enumerate(self.jobs):
            if kind == "reduce":
                self.jobs[i] = (kind, words, frozenset(
                    make(int(w, 2) if w else 0, len(w)) for w in words))

    def run_round(self, tally, tracer):
        wall = 0.0
        for i, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.op = f"{self.name}:{i}"
            kind = job[0]
            t0 = time.perf_counter()
            try:
                out = getattr(self, f"_run_{kind}")(job)
                error = None
            except self.aifv.errors.AifvError as exc:
                out, error = None, exc
            elapsed = time.perf_counter() - t0
            wall += elapsed
            codec = None
            if kind == "valid" and out is not None:
                # the sample round trip is a codec op inside the job
                codec = (out["encode_s"], out["decode_s"],
                         len(job[2]["msg"]), out["body_len"])
            tally.record(i, elapsed, codec)
            reason = f"raised {error!r}" if error is not None \
                else getattr(self, f"_check_{kind}")(job, out)
            tally.check(f"{kind} job {i}", reason)
        return wall

    def _run_broken(self, job):
        a = self.aifv
        ts = a.formats.parse_tree_set(job[1])
        reports = [a.codetree.validate(ts, "direct"),
                   a.codetree.validate(ts, "interval")]
        try:
            a.codetree.decoding_delay(ts)
            refused = False
        except a.errors.Unvalidated:
            refused = True
        return dict(reports=reports, refused=refused)

    def _check_broken(self, job, out):
        direct, interval = out["reports"]
        if direct.violations != interval.violations:
            return "direct and interval reports differ"
        got = sorted((v.rule, v.tree, v.symbols, v.words)
                     for v in direct.violations)
        if got != job[2]:
            return f"violations {got} differ from the construction"
        return None if out["refused"] else "decoding_delay ran on a broken set"

    def _run_valid(self, job):
        a = self.aifv
        spec = job[2]
        ts = a.formats.parse_tree_set(job[1])
        reports = [a.codetree.validate(ts, "direct"),
                   a.codetree.validate(ts, "interval")]
        delay = a.codetree.decoding_delay(ts)
        basic = a.formats.dumps_document(
            a.formats.tree_set_to_doc(a.transform.to_basic(ts)))
        rate = a.analysis.expected_code_length(ts, spec["dist"])
        mc = a.analysis.monte_carlo_rate(ts, spec["dist"], self.MC_SYMBOLS,
                                         spec["seed"])
        t0 = time.perf_counter()
        result = a.codec.encode(ts, spec["msg"])
        t1 = time.perf_counter()
        trace = a.codec.decode(ts, result.bits, len(spec["msg"]))
        t2 = time.perf_counter()
        return dict(reports=reports, delay=delay, basic=basic, rate=rate,
                    mc=mc, bits=bits_text(result.bits),
                    body_len=result.body_len, symbols=list(trace.symbols),
                    encode_s=t1 - t0, decode_s=t2 - t1)

    def _check_valid(self, job, out):
        spec = job[2]
        direct, interval = out["reports"]
        body, term = spec["encoded"]
        if direct.violations != interval.violations:
            return "direct and interval reports differ"
        if direct.violations:
            return f"valid set reported {len(direct.violations)} violations"
        if out["delay"] != spec["delay"]:
            return f"decoding delay {out['delay']} != {spec['delay']}"
        if out["basic"] != spec["basic"]:
            return "to_basic document differs from the reference"
        if abs(out["rate"] - spec["rate"]) > 1e-9 * max(1.0, spec["rate"]):
            return f"expected code length {out['rate']} != {spec['rate']}"
        if abs(out["mc"] - spec["rate"]) > spec["rate_tol"]:
            return f"Monte Carlo rate {out['mc']} too far from {spec['rate']}"
        if out["bits"] != body + term or out["body_len"] != len(body):
            return "sample encoding differs from the reference"
        if out["symbols"] != spec["msg"]:
            return "sample decoded to different symbols"
        return None

    def _run_reduce(self, job):
        result = self.aifv.wordset.reduce(job[2])
        return [bits_text(w) for w in result]

    def _check_reduce(self, job, out):
        return ref.reduce_ok(job[1], out)

    def _run_import(self, job):
        f = self.aifv.formats
        _, m, convention, symbols, trees = f.parse_conventional(job[1])
        if job[1]["kind"] == "aifv2":
            ts = self.aifv.transform.import_aifv2(trees, symbols)
        else:
            ts = self.aifv.transform.import_aifvm(trees, m, symbols,
                                                  convention)
        return f.dumps_document(f.tree_set_to_doc(ts))

    def _run_vv(self, job):
        f = self.aifv.formats
        ts = self.aifv.transform.vv_to_tree_set(f.parse_vv_table(job[1]))
        return f.dumps_document(f.tree_set_to_doc(ts))

    def _check_import(self, job, out):
        doc = json.loads(out)
        if not ref.is_valid(doc):
            return "converted set fails the reference checks"
        encodings, rate = job[2]
        for seq, expected in encodings.items():
            body, term = ref.encode(doc, seq)
            if body + term != expected:
                return f"{seq} encodes to {body + term}, not {expected}"
        if rate is not None:
            dist, expected = rate
            mean, _ = ref.rate_moments(doc, dist)
            if abs(mean - expected) > 0.001:
                return f"expected code length {mean} is not {expected}"
        return None

    _check_vv = _check_import


WORKLOADS = {w.name: w for w in (StreamLong, StreamShort, Design)}
