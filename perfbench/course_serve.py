"""``course_serve``: open-loop learner traffic against the course platform.

One generator thread replays a seeded Poisson arrival schedule against an
in-process :class:`repro.serve.CourseApp` that journals to JSONL files.
Each cohort starts with a pre-enrolled class written to the journal and
replayed when the app boots.  The mix is module reads (html and text,
render-cache hits), answer submits (grade plus journal append) and joins;
instructor gradebook polls run on a fixed cadence beside it.  The shares,
the poll cadence and the class's journaled history all come from the
learner session that :func:`repro.serve.load.run_load` models (see
:func:`session_model`), not from numbers of the benchmark's own.  The
generator serves each request in due order, so a slow request delays the
ones due behind it, and every request is timed from when it was due.

Reference phases at a fixed rate alternate with probes.  The reference
phases give the latency metrics; the probes walk a staircase of rates to
the one where a probe's p99 over all learner requests meets the latency
limit, without a growing backlog, half the time.  Every phase boots an app
on a fresh copy of the class journal written at set-up, so phases start
from the same state and each boot is a set-up sample.
"""

from __future__ import annotations

import math
import random
import shutil
import time
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from statistics import fmean, median
from typing import Any, Callable

from common import (
    SPEED,
    Ops,
    Result,
    SpanLog,
    Workload,
    layer_summary,
    percentile,
    remove_dir,
    repeat_for,
    scratch_dir,
    write_trace,
)

#: p99 limit on from-due latency over all learner requests.
LATENCY_LIMIT_MS = 100.0

#: Fixed offered load for the latency metrics.
REFERENCE_RPS = 1000.0

#: The first probe's rate, as a multiple of the capacity estimated from the
#: first reference phase.  In-app times measured at light load overstate
#: what a request costs a saturated thread, so the crossing sits above it.
START = 1.3

#: A probe's rate is a step factor above the last one's after a probe that
#: met the limit, and below after one that missed.  The factor starts at
#: ``STEPS[0]`` to reach the crossing in a few probes and halves (on a log
#: scale) at every turn of the staircase, down to ``STEPS[1]``.
STEPS = (1.2, 1.04)

#: Class size per cohort, and the length of each reference phase and probe
#: in gradebook poll intervals.
SIZES = {
    "full": {"class": 500, "polls": 3},
    "tiny": {"class": 5, "polls": 1},
}

ROUTES = {
    "read": "GET /m/<id>",
    "submit": "POST /m/<id>/submit",
    "join": "POST /join/<code>",
    "gradebook": "GET /gradebook/<cohort>",
}


@dataclass(frozen=True)
class SessionModel:
    """Traffic shares and poll cadence derived from ``run_load``'s session."""

    reads: int  # module reads per session, html then text alternating
    questions: int  # questions answered per session, wrong then right
    gradebook_every: int  # one instructor poll per this many sessions
    submits: float  # answer submits per session, averaged over cohorts

    @property
    def requests(self) -> float:
        """Learner requests per session: one join, the reads, the submits."""
        return 1 + self.reads + self.submits

    @property
    def mix(self) -> tuple[tuple[str, float], ...]:
        """Learner request kind -> share of all learner requests."""
        html = (self.reads + 1) // 2
        return (("read_html", html / self.requests),
                ("read_text", (self.reads - html) / self.requests),
                ("submit", self.submits / self.requests),
                ("join", 1 / self.requests))

    @property
    def gradebook_every_s(self) -> float:
        """Seconds between polls: one per ``gradebook_every`` sessions'
        worth of learner requests at the reference rate."""
        return self.gradebook_every * self.requests / REFERENCE_RPS


def _attempts(answer: tuple[str, Any, Any]) -> int:
    """Submits ``run_load`` makes for one question: wrong, then right if
    the question has a right answer."""
    return 1 if answer[1] is None else 2


@cache
def session_model() -> SessionModel:
    """Read the session shape off ``run_load``'s defaults and the demo
    cohorts' question pools.  A learner joins, reads the module ``reads``
    times, answers ``submit_questions`` of its questions wrong then right,
    and every ``gradebook_every``-th learner triggers a gradebook poll."""
    import inspect

    from repro.serve.load import answer_pool, run_load
    from repro.serve.registry import demo_registry

    defaults = {k: v.default for k, v in inspect.signature(run_load).parameters.items()}
    questions = defaults["submit_questions"]
    per_cohort = []
    for cohort in demo_registry().cohorts.values():
        pool = answer_pool(cohort.module)
        per_cohort.append(min(questions, len(pool)) * sum(map(_attempts, pool)) / len(pool))
    return SessionModel(defaults["reads"], questions, defaults["gradebook_every"],
                        sum(per_cohort) / len(per_cohort))


@dataclass
class Req:
    due: float  # seconds after the phase starts
    kind: str  # read | submit | join | gradebook
    method: str
    target: str
    body: Any = None
    status: int = 200
    correct: bool | None = None  # expected grade for a submit


@dataclass
class Sample:
    kind: str
    from_due: float  # completion minus due time
    in_call: float  # time inside the app call
    late: float  # start minus due time
    idle_before: bool  # the generator was waiting for this request
    end: float  # perf_counter at completion


@dataclass
class Cohort:
    slug: str
    code: str
    module: str
    learners: list[str]
    #: the module's question pool: (activity_id, right, wrong)
    answers: list[tuple[str, Any, Any]]
    #: the class's journaled history: (learner, activity_id, answer)
    submits: list[tuple[str, str, Any]]


@dataclass
class Serve:
    seed: int
    p: dict
    cohorts: list[Cohort]
    work: Path
    setup_times: list[float] = field(default_factory=list)
    replay_times: list[float] = field(default_factory=list)

    @property
    def journal(self) -> Path:
        return self.work / "class"

    def write_journal(self) -> None:
        """Journal each cohort's class through the program's own store."""
        writer = _open_registry(self.journal)
        for cohort in self.cohorts:
            store = writer.cohorts[cohort.slug].store
            for name in cohort.learners:
                store.enroll(name)
            for name, aid, answer in cohort.submits:
                store.submit(name, aid, answer)

    def boot(self, phase: str, wrap: Callable[[Any], Any] | None = None):
        """Set up afresh: copy the class journal, then boot an app that
        replays it.  ``wrap(registry)`` runs before the boot."""
        from repro.serve import CourseApp

        data = self.work / f"phase-{phase}"
        remove_dir(data)
        t0 = time.perf_counter()
        shutil.copytree(self.journal, data)
        t1 = time.perf_counter()
        registry = _open_registry(data)
        if wrap is not None:
            wrap(registry)
        app = CourseApp(registry, metrics_name=None, max_inflight=64, max_queue=1024, deadline_s=30.0)
        t2 = time.perf_counter()
        self.setup_times.append(t2 - t0)
        self.replay_times.append(t2 - t1)
        SPEED.calibrate()
        return app

    def close(self) -> None:
        remove_dir(self.work)


def _open_registry(data_dir: Path):
    from repro.serve.registry import demo_registry

    return demo_registry(backend="jsonl", data_dir=str(data_dir))


def setup(seed: int, size: str) -> Serve:
    """Draw each cohort's class from the seed, journal it and boot an app.

    Each class learner has already been through one session: its history
    is ``session_model().questions`` of its module's questions, wrong then right."""
    from repro.serve.load import answer_pool
    from repro.serve.registry import demo_registry

    p = SIZES[size]
    rng = random.Random(seed)
    cohorts: list[Cohort] = []
    for slug, cohort in sorted(demo_registry().cohorts.items()):
        answers = answer_pool(cohort.module)
        learners = [f"{slug}-{rng.getrandbits(40):010x}" for _ in range(p["class"])]
        submits = []
        for name in learners:
            for aid, right, wrong in rng.sample(answers, min(session_model().questions, len(answers))):
                submits.append((name, aid, wrong))
                if right is not None:
                    submits.append((name, aid, right))
        cohorts.append(Cohort(slug, cohort.class_code, cohort.module.slug, learners, answers, submits))
    serve = Serve(seed, p, cohorts, scratch_dir("serve-"))
    t0 = time.perf_counter()
    serve.write_journal()
    serve.boot("setup").close()
    serve.setup_times[-1] = time.perf_counter() - t0
    return serve


def schedule(serve: Serve, rate: float, duration: float, stream: int) -> list[Req]:
    """Seeded arrivals at ``rate`` for ``duration`` s plus gradebook polls.

    A submit answers a question with the odds a session gives it: questions
    weighted by their attempts, right and wrong alike when both are made."""
    from repro.serve.registry import DEMO_INSTRUCTOR_KEY

    rng = random.Random(f"{serve.seed}/{stream}/{rate}")
    mix = session_model().mix
    kinds = [k for k, _w in mix]
    weights = [w for _k, w in mix]
    reqs: list[Req] = []
    t = rng.expovariate(rate)
    joined = 0
    while t < duration:
        cohort = rng.choice(serve.cohorts)
        kind = rng.choices(kinds, weights)[0]
        if kind.startswith("read"):
            fmt = kind.split("_")[1]
            reqs.append(Req(t, "read", "GET", f"/m/{cohort.module}?format={fmt}"))
        elif kind == "submit":
            aid, right, wrong = rng.choices(cohort.answers, [_attempts(a) for a in cohort.answers])[0]
            good = right is not None and rng.random() < 0.5
            body = {"cohort": cohort.slug, "learner": rng.choice(cohort.learners),
                    "activity_id": aid, "answer": right if good else wrong}
            reqs.append(Req(t, "submit", "POST", f"/m/{cohort.module}/submit", body, 200, good))
        else:
            joined += 1
            body = {"learner": f"join-{stream}-{joined}-{rng.getrandbits(32):08x}"}
            reqs.append(Req(t, "join", "POST", f"/join/{cohort.code}", body, 201))
        t += rng.expovariate(rate)
    every = session_model().gradebook_every_s
    for i in range(int(duration / every + 0.5)):
        cohort = serve.cohorts[i % len(serve.cohorts)]
        reqs.append(Req((i + 0.5) * every, "gradebook", "GET", f"/gradebook/{cohort.slug}",
                        {"x-instructor-key": DEMO_INSTRUCTOR_KEY}))
    reqs.sort(key=lambda r: r.due)
    return reqs


def _wait_until(deadline: float) -> None:
    remaining = deadline - time.perf_counter()
    if remaining > 0.002:
        time.sleep(remaining - 0.001)
    while time.perf_counter() < deadline:
        pass


def run_schedule(app: Callable, reqs: list[Req], ops: Ops) -> list[Sample]:
    """Serve ``reqs`` in due order from this thread; check every response."""
    from repro.serve.asgi import Client

    client = Client(app)
    samples: list[Sample] = []
    start_at = time.perf_counter() + 0.01
    for req in reqs:
        due = start_at + req.due
        idle = time.perf_counter() < due
        if idle:
            _wait_until(due)
        start = time.perf_counter()
        if req.kind == "gradebook":
            resp = client.request(req.method, req.target, headers=list(req.body.items()))
        else:
            resp = client.request(req.method, req.target, json_body=req.body)
        end = time.perf_counter()
        samples.append(Sample(req.kind, end - due, end - start, start - due, idle, end))
        ops.attempted += 1
        if resp.status != req.status:
            ops.fail(f"{req.kind} {req.target}: status {resp.status}, expected {req.status}")
        elif req.correct is not None and resp.json().get("correct") is not req.correct:
            ops.fail(f"submit graded {resp.json().get('correct')}, expected {req.correct}")
    return samples


def _ms(values: list[float], q: float) -> float:
    return percentile(values, q) * 1e3


def _learner(samples: list[Sample]) -> list[float]:
    return [s.from_due for s in samples if s.kind != "gradebook"]


def _backlogged(samples: list[Sample]) -> bool:
    """The generator was still falling behind at the end of the phase."""
    tail = [s.late for s in samples[-max(1, len(samples) // 10):]]
    return median(tail) * 1e3 > LATENCY_LIMIT_MS


def phase(serve: Serve, rate: float, duration: float, stream: int, ops: Ops, tag: str,
          wrap: Callable[[Any], Any] | None = None) -> tuple[Any, list[Sample]]:
    reqs = schedule(serve, rate, duration, stream)
    app = serve.boot(tag, wrap)
    try:
        return app, run_schedule(app, reqs, ops)
    finally:
        app.close()


@dataclass
class Probe:
    rate: float
    p99_ms: float  # over all learner requests, from due time
    backlogged: bool

    @property
    def meets(self) -> bool:
        return self.p99_ms <= LATENCY_LIMIT_MS and not self.backlogged


def capacity(samples: list[Sample], duration: float) -> float:
    """Learner requests per second the serving thread can finish beside
    the gradebook polls, from the in-app times of one phase."""
    learner = [s.in_call for s in samples if s.kind != "gradebook"]
    polls = sum(s.in_call for s in samples if s.kind == "gradebook")
    return (1.0 - polls / duration) * len(learner) / sum(learner)


def max_rps(probes: list[Probe]) -> float:
    """The rate where a probe meets the limit half the time.

    The probes walk a one-up-one-down staircase, so once it has turned
    they straddle that rate.  The estimate is the geometric mean of the
    probe rates from the last probe before the first turn on.  A
    staircase that never turned gives its last rate, a bound.
    """
    turn = next((i for i in range(1, len(probes)) if probes[i].meets != probes[i - 1].meets), None)
    if turn is None:
        return probes[-1].rate
    rates = [pr.rate for pr in probes[turn - 1:]]
    return math.exp(sum(map(math.log, rates)) / len(rates))


def run(serve: Serve, seconds: float) -> Result:
    """Reference phases alternate with probes for the whole run, so both
    sample all of it.  The first probe starts at ``START`` times the
    capacity estimated on the first reference phase."""
    ops = Ops()
    phase_s = serve.p["polls"] * session_model().gradebook_every_s
    ref: list[Sample] = []
    probes: list[Probe] = []
    rate, step = [0.0], [STEPS[0]]

    def one(i: int) -> None:
        nonlocal ref
        _app, got = phase(serve, REFERENCE_RPS, phase_s, 100 + i, ops, f"reference-{i}")
        ref += got
        SPEED.calibrate()
        if i == 0:
            rate[0] = START * capacity(got, phase_s)
        _app, got = phase(serve, rate[0], phase_s, i + 1, ops, f"probe-{i}")
        probes.append(Probe(rate[0], _ms(_learner(got), 99), _backlogged(got)))
        if len(probes) > 1 and probes[-1].meets != probes[-2].meets:
            step[0] = max(STEPS[1], math.sqrt(step[0]))
        rate[0] = rate[0] * step[0] if probes[-1].meets else rate[0] / step[0]

    repeat_for(seconds, 2, one)
    reads = [s.from_due for s in ref if s.kind == "read"]
    submits = [s.from_due for s in ref if s.kind == "submit"]
    metrics = {
        "read_p50_ms": (_ms(reads, 50), "ms"),
        "read_p99_ms": (_ms(reads, 99), "ms"),
        "submit_p50_ms": (_ms(submits, 50), "ms"),
        "submit_p99_ms": (_ms(submits, 99), "ms"),
        "max_rps": (max_rps(probes), "req/s"),
    }
    details = {
        "reference_rps": REFERENCE_RPS,
        "mix": dict(session_model().mix),
        "gradebook_every_s": session_model().gradebook_every_s,
        "latency_limit_ms": LATENCY_LIMIT_MS,
        "samples": {"read": len(reads), "submit": len(submits)},
        "probes": [vars(pr) for pr in probes],
        "generator_late_p99_ms": _ms([s.late for s in ref if s.idle_before], 99),
    }
    # The wait of the typical learner request.  Means and high quantiles
    # follow the gradebook stalls, whose length swings with the host's
    # speed; they stay in the named metrics.
    summary = {"latency_ms": (_ms(_learner(ref), 50), "ms")}
    return Result(summary, metrics, ops, details)


def trace(serve: Serve, seconds: float) -> Result:
    """Reference phases as in :func:`run`, alternately untraced and traced
    with timing wrappers; each pair replays the same schedule."""
    from repro.obs import record
    from repro.runestone.render import render_html

    ops = Ops()
    phase_s = serve.p["polls"] * session_model().gradebook_every_s
    plain: list[Sample] = []
    traced: list[Sample] = []
    appends: list[float] = []
    journal_bytes = [0]
    snaps: list[dict] = []
    learners: list[int] = []
    events: list = []
    dropped = 0

    def timed_journals(registry: Any) -> None:
        for cohort in registry.cohorts.values():
            backend = cohort.store.backend
            original = backend.append

            def append(record: dict, original=original, backend=backend) -> None:
                size = backend.path.stat().st_size
                t0 = time.perf_counter()
                original(record)
                appends.append(time.perf_counter() - t0)
                journal_bytes[0] += backend.path.stat().st_size - size

            backend.append = append

    def one(i: int) -> None:
        nonlocal dropped
        stream = 100 + i // 2
        if i % 2 == 0:
            plain.extend(phase(serve, REFERENCE_RPS, phase_s, stream, ops, f"plain-{i}")[1])
            return
        with record() as rec:
            app, got = phase(serve, REFERENCE_RPS, phase_s, stream, ops, f"traced-{i}", timed_journals)
        traced.extend(got)
        snaps.append(app.metrics_snapshot())
        learners.append(max(len(c.store.learners()) for c in app.registry.cohorts.values()))
        events.extend(rec.events())
        dropped += rec.dropped

    repeat_for(seconds, 2, one)
    rounds = len(snaps)
    renders = []
    module = _open_registry(serve.journal).module(serve.cohorts[0].module)
    for _ in range(5):
        t0 = time.perf_counter()
        render_html(module)
        renders.append(time.perf_counter() - t0)
    gradebooks = [s.in_call for s in traced if s.kind == "gradebook"]
    metrics: dict[str, tuple[float, str]] = {}
    for short, route in ROUTES.items():
        rows = [snap["routes"][route] for snap in snaps if route in snap["routes"]]
        if rows:
            metrics[f"serve.route.{short}.server_p50_ms"] = (median(r["p50_ms"] for r in rows), "ms")
            metrics[f"serve.route.{short}.server_p99_ms"] = (median(r["p99_ms"] for r in rows), "ms")
    hits = sum(snap["cache"]["hits"] for snap in snaps)
    lookups = hits + sum(snap["cache"]["misses"] for snap in snaps)
    learner = [s for s in traced if s.kind != "gradebook"]
    metrics.update({
        "serve.queue_ms": (_ms([s.late for s in learner], 99), "ms"),
        "serve.cache.hit_rate": (hits / lookups, "share"),
        "serve.cache.render_ms": (median(renders) * 1e3, "ms"),
        "serve.journal.append_us": (median(appends) * 1e6, "us"),
        "serve.journal.bytes": (journal_bytes[0] / rounds, "B"),
        "serve.gradebook_ms": (median(gradebooks) * 1e3, "ms"),
        "serve.gradebook_learners": (float(max(learners)), "count"),
        "serve.replay_s": (median(serve.replay_times), "s"),
        "serve.generator_late_ms": (_ms([s.late for s in traced if s.idle_before], 99), "ms"),
        "obs.course_serve.trace_overhead": (
            sum(s.in_call for s in traced) / sum(s.in_call for s in plain[:len(traced)]), "ratio"),
    })
    # Request spans on the benchmark lane, due time to completion, moved
    # onto the monotonic clock the runtime events use.
    offset = time.monotonic() - time.perf_counter()
    spans = SpanLog([(s.kind, "serve", offset + s.end - s.from_due, offset + s.end) for s in traced])
    path = write_trace("course_serve", events, spans, dropped)
    # Compute: a learner request's time inside the app.  Overhead: its
    # wait from due time to the start of service.
    summary = layer_summary(metrics, "course_serve", compute_s=fmean(s.in_call for s in learner),
                            overhead_s=fmean(s.late for s in learner))
    return Result(summary, metrics, ops, {"chrome_trace": str(path), "requests": len(traced), "traced_phases": rounds})


WORKLOAD = Workload(
    name="course_serve",
    setup=setup,
    run=run,
    trace=trace,
    pinned={"generator_threads": 1, "reference_rps": REFERENCE_RPS, "latency_limit_ms": LATENCY_LIMIT_MS,
            "persistence": "jsonl"},
)
