"""``pdclint_corpus``: pdclint over the patternlet corpus plus ``examples/``.

The opt-in cost rules PDC120-122 are enabled, so both static interpreters
run (the protocol checker's and the cost model's).  Each timed pass is a
cold lint through ``repro.analysis.scale.driver.lint_corpus`` with one job
per core and an empty cache; a warm-cache pass follows.  Without this
workload the ``repro.analysis`` layer goes unmeasured.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import random
import time
from pathlib import Path
from statistics import median

from common import (
    NPROC,
    ROOT,
    SPEED,
    Ops,
    Result,
    SpanLog,
    Workload,
    layer_summary,
    remove_dir,
    repeat_for,
    require,
    scratch_dir,
    write_trace,
)

CORPUS = ("src/repro/patternlets", "examples")
COST_RULES = ("PDC120", "PDC121", "PDC122")
SUFFIXES = (".py", ".c", ".h")

#: Findings of the corpus as it stood when the benchmark was defined.
EXPECTED = Path(__file__).resolve().parent / "expected" / "pdclint_findings.json"


class Corpus:
    """The corpus files in the seed's order, their hash and parsed trees."""

    def __init__(self, seed: int, size: str) -> None:
        self.seed, self.size = seed, size
        self.setup_times: list[float] = []
        self.reset()

    def reset(self) -> None:
        """Set up afresh: collect, order, hash and parse the corpus."""
        t0 = time.perf_counter()
        files = collect()
        if self.size == "tiny":
            files = [f for f in files if f.name in ("pointtopoint.py", "race.py")]
        random.Random(self.seed).shuffle(files)
        self.files = files
        self.sha256 = corpus_hash(files)
        self.trees = {f: ast.parse(f.read_text(), filename=str(f)) for f in files if f.suffix == ".py"}
        self.expected = json.loads(EXPECTED.read_text())
        self.setup_times.append(time.perf_counter() - t0)
        SPEED.calibrate()

    def close(self) -> None:
        pass


def collect() -> list[Path]:
    files = []
    for top in CORPUS:
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in SUFFIXES and "__pycache__" not in path.parts:
                files.append(path)
    return files


def corpus_hash(files: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def setup(seed: int, size: str) -> Corpus:
    return Corpus(seed, size)


def fingerprints(report) -> list[str]:
    """One line per finding, reported or suppressed, in a stable order."""
    return sorted(
        f"{d.location}|{d.kind}|{d.details.get('rule', '')}|{tag}"
        for tag, diags in (("reported", report.diagnostics), ("suppressed", report.suppressed))
        for d in diags
    )


def serial_findings(files: list[Path]) -> tuple[list[str], float]:
    """The reference: every file linted in this process, and the time it took."""
    from repro.analysis.diagnostics import AnalysisReport
    from repro.analysis.lint.engine import ENGINE, _label, lint_source

    report = AnalysisReport(target="corpus", engine=ENGINE)
    t0 = time.perf_counter()
    for path in files:
        language = "python" if path.suffix == ".py" else "c"
        lint_source(path.read_text(), _label(path), language, report=report, enable=COST_RULES)
    return fingerprints(report), time.perf_counter() - t0


def check_findings(corpus: Corpus, found: list[str], reference: list[str]) -> None:
    require(found == reference, "parallel lint findings differ from the serial lint")
    expected = corpus.expected
    if corpus.sha256 == expected["corpus_sha256"] and len(corpus.files) == len(expected["files"]):
        require(found == expected["findings"], "lint findings differ from the recorded seed set")


def lint(corpus: Corpus, cache_dir: Path):
    from repro.analysis.scale.driver import lint_corpus

    return lint_corpus(corpus.files, jobs=NPROC, cache_dir=cache_dir, enable=COST_RULES)


def cold_pass(corpus: Corpus, ops: Ops, reference: list[str]) -> tuple[float, Path]:
    """One checked lint on an empty cache: (seconds or nan, the cache)."""
    cache = scratch_dir("lint-cache-")
    elapsed, _result = ops.call("cold lint", lambda: lint(corpus, cache),
                                lambda r: check_findings(corpus, fingerprints(r.report), reference))
    return elapsed, cache


def cold_passes(corpus: Corpus, seconds: float, ops: Ops, reference: list[str]) -> tuple[list[float], Path]:
    """Timed cold passes, the corpus set up afresh before each, and the
    host's speed taken after each; returns the pass times and the last
    pass's cache."""
    walls: list[float] = []
    caches: list[Path] = []

    def one(i: int) -> None:
        if i:
            corpus.reset()
            remove_dir(caches.pop())
        elapsed, cache = cold_pass(corpus, ops, reference)
        caches.append(cache)
        SPEED.calibrate()
        if not math.isnan(elapsed):
            walls.append(elapsed)

    repeat_for(seconds, 3, one)
    return walls, caches[-1]


def warm_passes(corpus: Corpus, cache: Path, ops: Ops, reference: list[str], reps: int = 5):
    walls, results = [], []
    for _ in range(reps):
        elapsed, result = ops.call("warm lint", lambda: lint(corpus, cache),
                                   lambda r: check_findings(corpus, fingerprints(r.report), reference))
        if result is not None:
            walls.append(elapsed)
            results.append(result)
    return walls, results


def run(corpus: Corpus, seconds: float) -> Result:
    ops = Ops()
    reference, _serial_s = serial_findings(corpus.files)
    walls, cache = cold_passes(corpus, seconds, ops, reference)
    warm, _results = warm_passes(corpus, cache, ops, reference)
    remove_dir(cache)
    metrics = {"lint_files_per_s": (len(corpus.files) / median(walls), "files/s")}
    details = {
        "files": len(corpus.files),
        "cold_passes": len(walls),
        "cold_median_s": median(walls),
        "warm_median_s": median(warm),
        "corpus_sha256": corpus.sha256,
        "corpus_matches_seed_set": corpus.sha256 == corpus.expected["corpus_sha256"],
        "findings": len(reference),
    }
    summary = {"latency_ms": (median(walls) * 1e3, "ms")}
    return Result(summary, metrics, ops, details)


def analyze_layers(corpus: Corpus, spans: SpanLog) -> dict[str, float]:
    """Time each analysis over the SPMD roots of every file."""
    from repro.analysis.flow import build_cfg, check_protocol, spmd_roots
    from repro.analysis.lint.costrules import COST_SAMPLE_SIZES
    from repro.analysis.scale import analyze_cost, check_protocol_symbolic

    totals = {"cfg": 0.0, "protocol": 0.0, "symbolic": 0.0, "cost": 0.0}
    functions = abstained = 0
    for path, tree in corpus.trees.items():
        for root in spmd_roots(tree):
            functions += 1
            label = f"{path.name}:{getattr(root, 'lineno', 0)}"
            for name, fn in (
                ("cfg", lambda: build_cfg(root)),
                ("protocol", lambda: check_protocol(root, tree)),
                ("symbolic", lambda: check_protocol_symbolic(root, tree)),
                ("cost", lambda: [analyze_cost(root, tree, size=p) for p in COST_SAMPLE_SIZES]),
            ):
                elapsed, out = spans.timed(f"{name} {label}", "analysis", fn)
                totals[name] += elapsed
                if name == "protocol" and out is None:
                    abstained += 1
                elif name == "symbolic" and out.abstained:
                    abstained += 1
                elif name == "cost" and any(s.abstained for s in out):
                    abstained += 1
    totals["functions"] = float(functions)
    totals["abstain_share"] = abstained / (3 * functions) if functions else 0.0
    return totals


def trace(corpus: Corpus, seconds: float) -> Result:
    """Each round times the serial lint, each analysis over the SPMD roots,
    and one untraced and one traced cold pass, so all are compared over
    the same stretch of the run."""
    from repro.obs import record

    ops = Ops()
    spans = SpanLog()
    reference, _ = serial_findings(corpus.files)
    serial: list[float] = []
    layers: list[dict[str, float]] = []
    plain: list[float] = []
    traced: list[float] = []
    caches: list[Path] = []
    events: list = []
    dropped = 0

    def one(_i: int) -> None:
        nonlocal dropped
        serial.append(serial_findings(corpus.files)[1])
        layers.append(analyze_layers(corpus, spans))
        elapsed, cache = cold_pass(corpus, ops, reference)
        remove_dir(cache)
        plain.append(elapsed)
        with record() as rec:
            elapsed, cache = cold_pass(corpus, ops, reference)
        traced.append(elapsed)
        events.extend(rec.events())
        dropped += rec.dropped
        if caches:
            remove_dir(caches.pop())
        caches.append(cache)

    repeat_for(seconds, 1, one)
    warm, results = warm_passes(corpus, caches[-1], ops, reference)
    remove_dir(caches[-1])
    metrics = {
        f"analysis.{name}_s": (median([layer[name] for layer in layers]), "s")
        for name in ("cfg", "protocol", "symbolic", "cost")
    }
    metrics.update({
        "analysis.functions": (layers[-1]["functions"], "count"),
        "analysis.abstain_share": (layers[-1]["abstain_share"], "share"),
        "analysis.driver_overhead_s": (median(plain) - median(serial) / NPROC, "s"),
        "analysis.cache_hit_rate": (results[-1].cache_hits / len(corpus.files), "share"),
        "analysis.warm_s": (median(warm), "s"),
        "obs.pdclint_corpus.trace_overhead": (median(traced) / median(plain), "ratio"),
    })
    path = write_trace("pdclint_corpus", events, spans, dropped)
    # Compute: the four analyses over every SPMD root.  Overhead: the
    # cold pass beyond the serial lint split over the jobs.
    summary = layer_summary(
        metrics, "pdclint_corpus",
        compute_s=sum(metrics[f"analysis.{name}_s"][0] for name in ("cfg", "protocol", "symbolic", "cost")),
        overhead_s=metrics["analysis.driver_overhead_s"][0])
    return Result(summary, metrics, ops, {"chrome_trace": str(path), "serial_s": median(serial)})


WORKLOAD = Workload(
    name="pdclint_corpus",
    setup=setup,
    run=run,
    trace=trace,
    pinned={"jobs": NPROC, "enable": ",".join(COST_RULES), "corpus": ",".join(CORPUS)},
)


def write_expected() -> None:
    """Record the current corpus's findings as the seed set."""
    files = collect()
    found, _ = serial_findings(files)
    EXPECTED.parent.mkdir(parents=True, exist_ok=True)
    EXPECTED.write_text(json.dumps({
        "corpus_sha256": corpus_hash(files),
        "files": sorted(str(f.relative_to(ROOT)) for f in files),
        "findings": found,
    }, indent=1) + "\n")
