#!/usr/bin/env python3
"""The orthocurrent benchmark.

    python3 perfbench/run.py --workload certify-small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The library is imported from the
checkout's own src/ and driven in-process through the entry points users
hit: cli.parse_args + cli.execute for verify, classify, table, oracle and
counterexample, and cli.recheck_json for the checker.  Load is a closed
loop: one client, one process, no threads, on the seeded inputs of
workloads.py.

Every run
  1. checks that the failure counter counts two bad inputs as failed,
  2. runs the golden round (round 0 of the baseline seed) and compares
     the SHA-256 of every JSON document with golden.json,
  3. with --trace 0, runs whole rounds of --seed for --seconds, times
     set-up in SETUP_PROBES fresh interpreters spread over the run, and
     reports the end-to-end metrics, scaled to a nominal machine speed
     by calibrate.py; with --trace 1, runs TRACE_ROUNDS rounds of --seed
     untraced and then traced, and reports the per-layer metrics.

The last line of stdout is the result object; the line before it holds
the full report, which is also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import Instance, Slot  # noqa: E402

SETUP_PROBES = 7
# p90 needs at least ten samples beyond it.  Rounds continue past
# --seconds until the run has this many calls, but never past
# MAX_OVERRUN times --seconds.
MIN_CALLS = 100
MAX_OVERRUN = 2.5
# Fixed work for a traced run, so its counts repeat exactly.
TRACE_ROUNDS = {"certify-small": 2, "certify-heavy": 1, "oracle-scan": 2}
# M, the derived algebra, is 6-dimensional; the oracle scans F_q^6.
M_DIM = 6
MAX_FAILURES_SHOWN = 20


# ---------------------------------------------------------------------------
# Library access.
# ---------------------------------------------------------------------------


def import_library():
    """orthocurrent.cli from this checkout's src/; exits 1 when it is absent."""
    if not (SRC / "orthocurrent" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'orthocurrent'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("orthocurrent.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported orthocurrent from {cli.__file__}, not from {SRC}")
    return cli


def construct_fields(workload: str) -> None:
    """Parse every field of the workload and build its constants."""
    scalars = sys.modules["orthocurrent.scalars"]
    for literal in workloads.fields(workload):
        field = scalars.parse_field(literal)
        field.zero()
        field.one()


def setup_probe(workload: str) -> tuple[float, float]:
    """Set-up seconds in a fresh interpreter, from before `import
    orthocurrent` until every field of the workload is constructed, raw
    and scaled by the reference loop run in the same interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe_setup.py"), workload],
        capture_output=True, text=True, timeout=120, check=True,
    )
    sample = json.loads(proc.stdout.splitlines()[-1])
    return sample["setup_s"], calibrate.scale(sample["setup_s"], sample["reference_s"])


def _run_cli(cli, argv):
    return cli.execute(cli.parse_args(argv))


# ---------------------------------------------------------------------------
# Operations and their checks.
# ---------------------------------------------------------------------------


def _failed_checks(checks) -> str | None:
    bad = [c["name"] for c in checks if not c["ok"]]
    return f"checks failed: {', '.join(bad)}" if bad else None


class Session:
    """Runs operations through the CLI entry points, times each library
    call, checks every output and counts attempted and failed ops."""

    def __init__(self, cli, tracer: Tracer | None = None, keep_outputs: bool = False):
        self.cli = cli
        self.tracer = tracer
        self.latency_ns: dict[str, list[int]] = defaultdict(list)
        self.call_ns: list[int] = []  # every call's latency, in call order
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.instances = 0
        self.outputs: list[tuple[str, str]] | None = [] if keep_outputs else None
        self.json_bytes = 0
        self.ideals_found = 0
        self.oracle_q: dict[int, int] = {}  # op id -> q

    @property
    def calls(self) -> int:
        return sum(len(v) for v in self.latency_ns.values())

    def _call(self, op: str, fn, *args):
        """(result, None) or (None, error); the call is timed either way."""
        start = perf_counter_ns()
        try:
            if self.tracer is None:
                return fn(*args), None
            return self.tracer.run_op(op, self.attempted, fn, *args), None
        except SystemExit as exc:  # argparse rejected the arguments
            return None, f"usage error, exit {exc.code}"
        except Exception:  # any library error is a failed op, not a crash
            return None, traceback.format_exc(limit=-3)
        finally:
            elapsed = perf_counter_ns() - start
            self.latency_ns[op].append(elapsed)
            self.call_ns.append(elapsed)

    def _finish(self, op: str, label: str, why: str | None, text: str | None) -> None:
        self.attempted += 1
        if why:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_SHOWN:
                self.failures.append(f"{op} {label}: {why}")
        if self.outputs is not None and text is not None:
            self.outputs.append((f"{len(self.outputs):03d} {op} {label}", text))

    def _cli(self, op: str, label: str, argv: list[str], check):
        """Run one CLI command; its JSON document, or None when it failed."""
        result, error = self._call(op, _run_cli, self.cli, argv)
        if error:
            self._finish(op, label, error, None)
            return None
        code, text = result
        self.json_bytes += len(text.encode())
        why = None
        doc = None
        if code != 0:
            why = f"exit code {code}: {text.splitlines()[0] if text else ''}"
        else:
            try:
                doc = json.loads(text)
                why = check(doc)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                why = f"malformed output: {exc!r}"
        self._finish(op, label, why, text)
        return None if why else doc

    @staticmethod
    def _form_args(inst: Instance) -> list[str]:
        # "--form=" keeps a leading minus sign from reading as an option.
        return ["--field", inst.field, f"--form={inst.form}", "--json"]

    def verify(self, inst: Instance):
        argv = ["verify", *self._form_args(inst), "--seed", "0"]
        return self._cli("verify", f"{inst.field} {inst.form}", argv,
                         lambda doc: _failed_checks(doc["checks"]))

    def classify(self, inst: Instance):
        def check(doc):
            if doc["case"] != inst.expected_case:
                return f"case {doc['case']}, built as {inst.expected_case}"
            return _failed_checks(doc["checks"])
        return self._cli("classify", f"{inst.field} {inst.form}",
                         ["classify", *self._form_args(inst)], check)

    def table(self, inst: Instance):
        return self._cli("table", f"{inst.field} {inst.form}",
                         ["table", *self._form_args(inst)],
                         lambda doc: _failed_checks(doc["checks"]))

    def counterexample(self, p: int):
        def check(doc):
            return _failed_checks(doc["checks"]) or _failed_checks(doc["descent_checks"])
        return self._cli("counterexample", f"p={p}",
                         ["counterexample", "--p", str(p), "--json"], check)

    def oracle(self, inst: Instance):
        count, histogram = workloads.ORACLE_EXPECTED[inst.expected_case]

        def check(doc):
            self.ideals_found += doc["ideal_count"]
            if doc["ideal_count"] != count or doc["histogram"] != histogram:
                return (f"{doc['ideal_count']} ideals {doc['histogram']}, "
                        f"expected {count} {histogram} for {inst.expected_case}")
            return _failed_checks(doc["checks"])
        self.oracle_q[self.attempted] = int(inst.field[1:])
        return self._cli("oracle", f"{inst.field} {inst.form}",
                         ["oracle", *self._form_args(inst)], check)

    def recheck(self, inst: Instance, doc) -> None:
        """The independent checker on a classify certificate."""
        label = f"{inst.field} {inst.form}"
        if doc is None:
            self._finish("recheck", label, "no certificate to check", None)
            return
        result, error = self._call("recheck", self.cli.recheck_json, doc)
        if error:
            self._finish("recheck", label, error, None)
            return
        try:
            why = _failed_checks(result)
        except (KeyError, TypeError) as exc:
            why = f"malformed checker result: {exc!r}"
        self._finish("recheck", label, why, json.dumps(result))


def run_round(session: Session, workload: str, instances: list[Instance], after=None) -> None:
    """One instance per slot, and for certify-heavy the counterexamples;
    `after`, when given, is called after each instance and each
    counterexample."""
    for inst in instances:
        if workload == "oracle-scan":
            session.oracle(inst)
        else:
            session.verify(inst)
            session.recheck(inst, session.classify(inst))
            session.table(inst)
        if after:
            after()
    session.instances += len(instances)
    if workload == "certify-heavy":
        for p in workloads.COUNTEREXAMPLE_PRIMES:
            session.counterexample(p)
            if after:
                after()


def failure_counter_selftest(cli) -> list[str]:
    """Feed the op checks two inputs that must count as failed ops: a
    certificate with one flipped table entry, and an out-of-domain input
    (a non-square D over F2(t)[sqrt t] needs a tower, a DomainError).
    Returns the problems found; empty when the counter works."""
    session = Session(cli)
    good = Instance(Slot("F3", workloads.PrimeLiterals(3), True), "1,1,1,1")
    doc = session.classify(good)
    if doc is None:
        return [f"clean classify failed: {session.failures}"]
    problems = []
    flipped = copy.deepcopy(doc)
    entry = flipped["table"][0][1]
    k = next(i for i, x in enumerate(entry) if x != "0")
    entry[k] = "2" if entry[k] == "1" else "1"
    before = session.failed
    session.recheck(good, flipped)
    if session.failed != before + 1:
        problems.append("a certificate with a flipped table entry passed the checker")
    before = session.failed
    session.classify(Instance(Slot("F2(t)[sqrt t]", workloads.PolyLiterals(2), False), "1,1,1,r"))
    if session.failed != before + 1:
        problems.append("an out-of-domain input did not count as failed")
    return problems


# ---------------------------------------------------------------------------
# Golden round.
# ---------------------------------------------------------------------------


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden_round(cli, workload: str) -> tuple[Session, dict]:
    """Round 0 of the baseline seed, with the digest of every document."""
    session = Session(cli, keep_outputs=True)
    run_round(session, workload, workloads.round_instances(workload, workloads.BASELINE_SEED, 0))
    documents = {label: _sha256(text) for label, text in session.outputs}
    digest = _sha256("".join(f"{label}\n{d}\n" for label, d in documents.items()))
    return session, {"digest": digest, "documents": documents}


def compare_golden(workload: str, found: dict) -> list[str]:
    """Labels of documents whose bytes differ from golden.json."""
    recorded = json.loads(GOLDEN.read_text()).get(workload) if GOLDEN.is_file() else None
    if recorded is None:
        return [f"no golden digest recorded for {workload}"]
    if recorded["digest"] == found["digest"]:
        return []
    old, new = recorded["documents"], found["documents"]
    return [label for label in sorted(old.keys() | new.keys()) if old.get(label) != new.get(label)]


def update_golden(workload: str, found: dict) -> None:
    data = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    data[workload] = found
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------


def _ms(ns_values: list[int]) -> list[float]:
    return [v / 1e6 for v in ns_values]


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def timed_run(cli, workload: str, seed: int, seconds: int):
    """Whole rounds of the seed until --seconds of rounds have run.

    Returns the session, each round's time in library calls, the
    reference loop's times after each instance of each round, and
    SETUP_PROBES set-up samples.  Set-up is probed each time another
    1/SETUP_PROBES of --seconds has run, so that its samples spread over
    the run; probes left over run at the end."""
    session = Session(cli)
    round_s: list[float] = []
    references: list[list[float]] = []
    setup: list[tuple[float, float]] = []
    measured = 0.0
    while True:
        first = len(session.call_ns)
        refs: list[float] = []
        start = perf_counter()
        run_round(session, workload, workloads.round_instances(workload, seed, len(round_s)),
                  after=lambda: refs.append(calibrate.reference_s()))
        measured += perf_counter() - start
        round_s.append(sum(session.call_ns[first:]) / 1e9)
        references.append(refs)
        if len(setup) < SETUP_PROBES and measured >= len(setup) * seconds / SETUP_PROBES:
            setup.append(setup_probe(workload))
        if measured >= seconds and (session.calls >= MIN_CALLS or measured >= MAX_OVERRUN * seconds):
            break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(workload))
    return session, round_s, references, setup


def op_latencies(session: Session) -> dict:
    """Per-operation latency metrics, with sample counts; p90 only where
    at least MIN_CALLS samples put ten beyond it."""
    out = {}
    for op, values in sorted(session.latency_ns.items()):
        ms = _ms(values)
        out[f"{op}_p50_ms"] = {"value": statistics.median(ms), "unit": "ms", "samples": len(ms)}
        if len(ms) >= MIN_CALLS:
            out[f"{op}_p90_ms"] = {"value": _p90(ms), "unit": "ms", "samples": len(ms)}
    return out


def traced_run(cli, workload: str, seed: int, tracer: Tracer) -> tuple[Session, Session, int, int]:
    """TRACE_ROUNDS rounds of the seed, each run untraced and then traced,
    so that a drift in machine speed touches both timings alike."""
    plain = Session(cli, keep_outputs=True)
    traced = Session(cli, tracer=tracer, keep_outputs=True)
    untraced_ns = traced_ns = 0
    for index in range(TRACE_ROUNDS[workload]):
        instances = workloads.round_instances(workload, seed, index)
        start = perf_counter_ns()
        run_round(plain, workload, instances)
        untraced_ns += perf_counter_ns() - start
        tracer.install()
        try:
            start = perf_counter_ns()
            run_round(traced, workload, instances)
            traced_ns += perf_counter_ns() - start
        finally:
            tracer.uninstall()
    return plain, traced, untraced_ns, traced_ns


def trace_metrics(tracer: Tracer, traced: Session, untraced_ns: int, traced_ns: int) -> dict:
    metrics = dict(layer_metrics(tracer))
    gaussian_binomial = sys.modules["orthocurrent.oracle"].gaussian_binomial
    scanned = 0
    for name, _, _, _, op_id in tracer.records:
        if name == "oracle.enumerate_ideals":
            q = traced.oracle_q[op_id]
            scanned += sum(gaussian_binomial(M_DIM, k, q) for k in range(M_DIM + 1))
    metrics["oracle.subspaces_scanned"] = (scanned, "count_computed")
    metrics["oracle.ideals_found"] = (traced.ideals_found, "count")
    metrics["cli.json_bytes"] = (traced.json_bytes, "bytes")
    metrics["trace.untraced_ms"] = (untraced_ns / 1e6, "ms")
    metrics["trace.overhead_ms"] = ((traced_ns - untraced_ns) / 1e6, "ms")
    metrics["trace.overhead_pct"] = (100.0 * (traced_ns - untraced_ns) / untraced_ns, "%")
    metrics["trace.spans"] = (len(tracer.records), "count")
    return metrics


# ---------------------------------------------------------------------------
# Run metadata.
# ---------------------------------------------------------------------------


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "orthocurrent").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metadata() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def parse_cli(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true",
                        help="record this checkout's golden-round digest for the workload")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_cli(sys.argv[1:] if argv is None else argv)
    workload = args.workload
    setup_start = perf_counter()
    cli = import_library()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        try:
            tracer.run_op("setup", -1, construct_fields, workload)
        finally:
            tracer.uninstall()
    else:
        construct_fields(workload)
    in_process_setup_s = perf_counter() - setup_start
    report = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": metadata(),
        "in_process_setup_s": in_process_setup_s,
    }

    problems = failure_counter_selftest(cli)
    report["failure_counter_selftest"] = problems or "ok"

    golden, found = golden_round(cli, workload)
    if args.update_golden:
        update_golden(workload, found)
    changed = compare_golden(workload, found)
    report["golden"] = {"digest": found["digest"], "changed": changed}
    sessions = [golden]

    if args.trace:
        plain, traced, untraced_ns, traced_ns = traced_run(cli, workload, args.seed, tracer)
        sessions += [plain, traced]
        if [t for _, t in plain.outputs] != [t for _, t in traced.outputs]:
            problems.append("traced outputs differ from untraced outputs")
        metrics = trace_metrics(tracer, traced, untraced_ns, traced_ns)
        report["trace_rounds"] = TRACE_ROUNDS[workload]
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        session, round_s, references, setup = timed_run(cli, workload, args.seed, args.seconds)
        sessions.append(session)
        calls = _ms(session.call_ns)
        # Each round's time is scaled by the reference loop run between its
        # instances, so that a drift in machine speed cancels.
        scaled_round_s = [calibrate.scale(t, refs) for t, refs in zip(round_s, references)]
        metrics = {
            "setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
            "instances_per_s": (session.instances / sum(scaled_round_s), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        report.update(
            nominal_reference_s=calibrate.NOMINAL_S,
            reference_s_median=statistics.median(r for refs in references for r in refs),
            setup_samples_s=[raw for raw, _ in setup],
            scaled_setup_samples_s=[scaled for _, scaled in setup],
            raw_setup_s={"value": statistics.median(raw for raw, _ in setup), "unit": "s"},
            rounds=len(round_s),
            round_s=round_s,
            scaled_round_s=scaled_round_s,
            raw_instances_per_s={"value": session.instances / sum(round_s), "unit": "1/s"},
            instances=session.instances,
            measured_s=sum(round_s),
            calls=len(calls),
            call_p50_ms={"value": statistics.median(calls), "unit": "ms", "samples": len(calls)},
            call_p90_ms={"value": _p90(calls), "unit": "ms", "samples": len(calls)},
            by_op=op_latencies(session),
        )

    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    report.update(
        attempted=attempted,
        failed=failed,
        error_rate={"value": failed / attempted, "unit": "ratio"},
        failures=[f for s in sessions for f in s.failures][:MAX_FAILURES_SHOWN],
        problems=problems,
        peak_rss_mb=peak_rss_mb(),
    )
    result = {
        "correct": failed == 0 and not problems and not changed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
