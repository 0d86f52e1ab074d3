"""The benchmark's three workloads.

Each workload has three steps:

* ``build(seed, size)`` generates the inputs from the seed.  It is the
  timed set-up (``setup_s``); :mod:`run` repeats it and reports the median.
* ``prepare(inputs, plant)`` computes the reference outputs the measured
  units are checked against.  ``plant=True`` corrupts one expectation, to
  prove a wrong output aborts the run.
* ``measure(inputs, reference, seconds)`` repeats a round of identical
  work (a pass over the change dataset, one sweep) until ``seconds`` have
  passed and returns a :class:`Window` of :class:`Round` records.  A
  wrong output raises :class:`WrongOutput`; a unit that errors, ends
  ``unknown`` or gets a non-200 answer is counted as failed.

Only generated inputs reach the program: seeds never do.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import resource
import signal
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.serve import protocol
from repro.verifier import VerificationOptions, single_link_failures, verify_change
from repro.verifier.session import VerificationSession
from repro.workloads.backbone import BackboneParams, generate_backbone
from repro.workloads.changes import generate_change_dataset
from repro.workloads.contingencies import drain_sweep_scenario, interconnect_maintenance_sets
from repro.workloads.scale import ScaleProfile, scale_backbone
from repro.workloads.stream import StreamProfile, generate_stream
from repro.workloads.traffic import generate_fecs

HERE = Path(__file__).resolve().parent


class WrongOutput(Exception):
    """A unit's verdict or report differs from its reference."""


@dataclass
class Round:
    """One round of identical work."""

    seconds: float = 0.0
    #: Per-unit verdict latency in seconds, successful units only.
    latencies: list[float] = field(default_factory=list)
    failed: int = 0


@dataclass
class Window:
    """What one measured window observed."""

    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    rounds: list[Round] = field(default_factory=list)
    #: Counters read from the program's reports (naive/executed checks...).
    counters: Counter = field(default_factory=Counter)
    #: Set by workloads whose peak memory lives in another process.
    peak_rss_mb: float | None = None
    #: Spans recorded by a traced daemon (the serve workload).
    remote_spans: dict | None = None

    def fail(self, what: str, units: int = 1) -> None:
        self.failed += units
        self.rounds[-1].failed += units
        print(f"unit failed: {what}", file=sys.stderr)


def _derived_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def _count_report(window: Window, report) -> None:
    window.counters["verifier.checks.naive"] += report.unique_checks
    window.counters["verifier.checks.executed"] += report.executed_checks
    window.counters["verifier.checks.cached"] += report.cached_checks
    window.counters["verifier.runtime.retries"] += report.retried_checks
    window.counters["verifier.runtime.pool_rebuilds"] += report.pool_rebuilds
    window.counters["verifier.failed_checks"] += len(report.failed_checks)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# changes: the Figure 6 change dataset, one serial verify_change per unit
# ----------------------------------------------------------------------
class Changes:
    """A pass verifies changes drawn from the datasets of several backbones.

    Costs differ from one random backbone to the next, so one pass spans
    ``BACKBONES`` of them and the per-seed figures stay close.
    """

    BACKBONES = {"full": 8, "tiny": 1}
    #: Changes drawn per backbone, by (archetype, atomic spec size).  No-change
    #: changes are 56% of a pass and single shifts 25% (69-94%), so p50 and
    #: p90 each fall inside a cluster of similar changes.  Multi-shift windows
    #: are the smallest (4 atomic specs): larger ones cost 2x more on one
    #: random window than on the next, which one pass cannot average out.
    MIX = {
        "full": {
            ("no_change", 1): 9,
            ("prefix_decommission", 2): 1,
            ("path_prune", 1): 1,
            ("traffic_shift", 2): 4,
            ("multi_shift", 4): 1,
        },
        "tiny": {
            ("no_change", 1): 3,
            ("prefix_decommission", 2): 1,
            ("traffic_shift", 2): 1,
            ("multi_shift", 4): 1,
        },
    }

    def build(self, seed: int, size: str) -> list:
        """``(location db, change scenario)`` per unit of one pass."""
        units = []
        for index in range(self.BACKBONES[size]):
            backbone_seed, fec_seed, dataset_seed = _derived_seeds(seed * 100 + index, 3)
            backbone = generate_backbone(
                BackboneParams(
                    regions=4,
                    routers_per_group=2,
                    parallel_links=2,
                    prefixes_per_region=2,
                    seed=backbone_seed,
                )
            )
            db = backbone.location_db()
            pre = backbone.simulator().snapshot(
                generate_fecs(backbone, max_classes=24, seed=fec_seed), name="pre"
            )
            wanted = Counter(self.MIX[size])
            count = 200
            while wanted:
                if count > 3200:
                    raise RuntimeError(f"change dataset lacks {dict(wanted)} for seed {seed}")
                for scenario in generate_change_dataset(
                    backbone, pre, count=count, seed=dataset_seed
                ):
                    key = (scenario.archetype, scenario.atomic_count)
                    if wanted[key] > 0:
                        wanted[key] -= 1
                        units.append((db, scenario))
                wanted = +wanted
                count *= 2
        return units

    def prepare(self, units: list, plant: bool) -> list[bool]:
        expected = [scenario.expect_holds for _db, scenario in units]
        if plant:
            expected[0] = not expected[0]
        return expected

    def measure(self, units: list, expected: list[bool], seconds: float) -> Window:
        options = VerificationOptions(collect_counterexamples=False)
        window = Window()
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            this = Round()
            window.rounds.append(this)
            round_started = time.perf_counter()
            for (db, scenario), expect in zip(units, expected):
                window.attempted += 1
                unit_started = time.perf_counter()
                try:
                    report = verify_change(
                        scenario.pre, scenario.post, scenario.spec, db=db, options=options
                    )
                except Exception:  # noqa: BLE001 - a failing unit is counted, not fatal
                    traceback.print_exc()
                    window.fail(scenario.change_id)
                    continue
                elapsed = time.perf_counter() - unit_started
                _count_report(window, report)
                if report.verdict == "unknown":
                    window.fail(f"{scenario.change_id}: unknown verdict")
                    continue
                if report.holds != expect:
                    raise WrongOutput(
                        f"{scenario.change_id} ({scenario.archetype}): holds={report.holds}, "
                        f"expected {expect}"
                    )
                this.latencies.append(elapsed)
            this.seconds = time.perf_counter() - round_started
        window.wall_s = time.perf_counter() - started
        return window


# ----------------------------------------------------------------------
# sweep: a journaled contingency sweep of one scale backbone per round
# ----------------------------------------------------------------------
def sweep_facts(sweep) -> dict:
    """Everything a sweep decides, without timings (as ``bench_k2_sweep``)."""
    return {
        "results": [
            (
                result.contingency.contingency_id,
                result.holds,
                result.expected_holds,
                result.report.total_fecs,
                result.report.violating_fecs,
                result.report.unique_checks,
                [
                    (ce.fec_id, tuple(ce.pre_paths), tuple(ce.post_paths))
                    for ce in result.report.counterexamples
                ],
            )
            for result in sweep.results
        ],
        "distinct_graphs": sweep.distinct_graphs,
        "naive_checks": sweep.naive_checks,
        "executed_checks": sweep.executed_checks,
        "cached_checks": sweep.cached_checks,
    }


@dataclass
class SweepInputs:
    scenario: object
    contingencies: list

    def sweep(self):
        return self.scenario.sweep(list(self.contingencies))


class Sweep:
    """A border drain verified under every single-bundle failure and every
    interconnect severance, with the checkpoint journal on.

    A round is one sweep.  A unit is one contingency; it is submitted when
    the sweep starts, so its verdict latency is the time from the sweep's
    start to the moment its result lands.  Three regions make a ring with
    no random chords, so the backbone is the same for every seed; the drain
    is the last region onto the first, as in ``bench_contingency_sweep``.
    """

    #: (regions, classes) of the backbone.
    SCALE = {"full": (3, 5000), "tiny": (3, 200)}

    def __init__(self, scratch: Path) -> None:
        self.journal = scratch / "sweep.ckpt"

    def build(self, seed: int, size: str) -> SweepInputs:
        regions, num_fecs = self.SCALE[size]
        backbone_seed, drain_seed = _derived_seeds(seed, 2)
        backbone = scale_backbone(
            ScaleProfile(num_fecs=num_fecs, regions=regions, seed=backbone_seed)
        )
        scenario = drain_sweep_scenario(backbone, num_fecs=num_fecs, seed=drain_seed)
        contingencies = single_link_failures(backbone.topology)
        contingencies += interconnect_maintenance_sets(backbone)
        return SweepInputs(scenario, contingencies)

    def prepare(self, inputs: SweepInputs, plant: bool) -> dict:
        # The reference is the same sweep without the journal.
        reference = sweep_facts(inputs.sweep().run())
        if plant:
            first = list(reference["results"][0])
            first[1] = not first[1]
            reference["results"][0] = tuple(first)
        return reference

    def measure(self, inputs: SweepInputs, reference: dict, seconds: float) -> Window:
        window = Window()
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            self._one_sweep(inputs, reference, window)
        window.wall_s = time.perf_counter() - started
        return window

    def _one_sweep(self, inputs: SweepInputs, reference: dict, window: Window) -> None:
        units = len(reference["results"])
        this = Round()
        window.rounds.append(this)
        window.attempted += units
        self.journal.unlink(missing_ok=True)
        started = time.perf_counter()
        try:
            report = inputs.sweep().run(
                checkpoint=self.journal,
                on_contingency=lambda *_: this.latencies.append(time.perf_counter() - started),
            )
        except Exception:  # noqa: BLE001 - a failing sweep fails its units
            traceback.print_exc()
            this.latencies.clear()
            window.fail("sweep raised", units)
            return
        finally:
            this.seconds = time.perf_counter() - started
        window.counters["persist.journal_bytes"] += self.journal.stat().st_size
        window.counters["snapshots.distinct_graphs"] += report.distinct_graphs
        for result in report.results:
            _count_report(window, result.report)
        unknown = [r.contingency.contingency_id for r in report.results if r.verdict == "unknown"]
        if unknown:
            this.latencies.clear()
            for contingency_id in unknown:
                window.fail(f"{contingency_id}: unknown verdict")
            return
        if report.expectation_mismatches:
            raise WrongOutput(
                "contingencies disagree with their expectation: "
                + ", ".join(r.contingency.contingency_id for r in report.expectation_mismatches)
            )
        if report.executed_checks + report.cached_checks != report.naive_checks:
            raise WrongOutput(
                f"executed {report.executed_checks} + cached {report.cached_checks} "
                f"!= naive {report.naive_checks}"
            )
        if sweep_facts(report) != reference:
            raise WrongOutput("sweep facts differ from the reference sweep")


# ----------------------------------------------------------------------
# serve: a live daemon, two tenants replaying a rolling-drain stream
# ----------------------------------------------------------------------
TENANTS = ("tenant-0", "tenant-1")
SESSION_OPTIONS = {"workers": 2}
#: One request-execution thread: the tenants' requests queue for it instead
#: of contending for the interpreter lock, which made p50 and throughput
#: swing by ±13% from run to run.
DAEMON_ARGS = ("--exec-threads", "1")


class Daemon:
    """``repro serve`` started through the benchmark's launcher."""

    def __init__(self, src: Path, scratch: Path, trace_out: Path | None, args: list[str]):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        env["PYTHONUNBUFFERED"] = "1"
        env["TMPDIR"] = str(scratch)
        if trace_out is not None:
            env["PERFBENCH_TRACE_OUT"] = str(trace_out)
        self.trace_out = trace_out
        command = [sys.executable, str(HERE / "serve_launcher.py"), "serve", "--port", "0"]
        self.process = subprocess.Popen(
            [*command, *DAEMON_ARGS, *args],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        line = self.process.stdout.readline()
        if not line.startswith("serving on http://"):
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, dict]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"null")
        finally:
            connection.close()

    def open_window(self) -> dict:
        """Restart the daemon's span aggregation; returns ``/healthz``."""
        if self.trace_out is not None:
            self.process.send_signal(signal.SIGUSR1)
        # /healthz is answered on the main thread, after the signal handler.
        return self.request("GET", "/healthz")[1]

    def vm_hwm_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> dict | None:
        """Drain the daemon (SIGTERM), wait for it, return its spans."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        self.process.stdout.close()
        if self.trace_out is not None and self.trace_out.exists():
            return json.loads(self.trace_out.read_text())
        return None


@dataclass
class TenantStream:
    """One tenant's rolling-drain stream, pre-encoded for the wire."""

    tenant: str
    stream: object
    initial_body: bytes
    #: One advance body per epoch.
    bodies: list[bytes]
    #: The in-process replay's stripped reports, one per epoch.
    reference: list[bytes] | None = None


@dataclass
class ServeInputs:
    daemon: Daemon
    tenants: list[TenantStream]

    def close(self) -> dict | None:
        return self.daemon.stop()


def _encode_stream(tenant: str, stream) -> TenantStream:
    encoded: dict[tuple[int, int], bytes] = {}
    bodies = []
    for epoch in stream.epochs:
        key = (id(epoch.post), id(epoch.spec))
        if key not in encoded:
            encoded[key] = protocol.canonical_json(
                {
                    "snapshot": {"data": epoch.post.to_dict()},
                    "spec": protocol.pickle_b64(epoch.spec),
                }
            )
        bodies.append(encoded[key])
    initial_body = protocol.canonical_json(
        {"initial": {"data": stream.initial.to_dict()}, "options": SESSION_OPTIONS}
    )
    return TenantStream(tenant, stream, initial_body, bodies)


class Serve:
    """Two tenants, one client thread each, replay their own streams."""

    #: (classes, regions, epochs) of each tenant's stream.  Only the first
    #: four epochs of a session execute checks, so with 100 epochs p90 falls
    #: among the verdict-cache hits.
    SIZES = {"full": (300, 10, 100), "tiny": (40, 4, 8)}

    def __init__(self, src: Path, scratch: Path, trace: bool, daemon_args: list[str]):
        self.src = src
        self.scratch = scratch
        self.trace = trace
        self.daemon_args = daemon_args
        self.started = 0

    def build(self, seed: int, size: str) -> ServeInputs:
        num_fecs, regions, epochs = self.SIZES[size]
        tenants = [
            _encode_stream(
                tenant,
                generate_stream(
                    StreamProfile(
                        num_fecs=num_fecs,
                        regions=regions,
                        epochs=epochs,
                        rotation=2,
                        seed=stream_seed,
                    )
                ),
            )
            for tenant, stream_seed in zip(TENANTS, _derived_seeds(seed, len(TENANTS)))
        ]
        self.started += 1
        trace_out = self.scratch / f"daemon-spans-{self.started}.json" if self.trace else None
        daemon = Daemon(self.src, self.scratch, trace_out, self.daemon_args)
        try:
            # Spin the shared worker pool up before any session advances.
            first = tenants[0].stream
            status, payload = daemon.request(
                "POST",
                "/v1/verify",
                protocol.canonical_json(
                    {
                        "pre": {"data": first.initial.to_dict()},
                        "post": {"data": first.initial.to_dict()},
                        "spec": protocol.pickle_b64(first.epochs[0].spec),
                        "options": SESSION_OPTIONS,
                    }
                ),
            )
            if status != 200:
                raise RuntimeError(f"warm-up verify answered {status}: {payload}")
            for tenant in tenants:
                # A refused session makes every advance of its tenant fail.
                daemon.request("POST", f"/v1/sessions/{tenant.tenant}/s0", tenant.initial_body)
        except BaseException:
            daemon.stop()
            raise
        return ServeInputs(daemon, tenants)

    def prepare(self, inputs: ServeInputs, plant: bool) -> None:
        for tenant in inputs.tenants:
            session = VerificationSession(
                tenant.stream.initial, None, options=VerificationOptions(**SESSION_OPTIONS)
            )
            tenant.reference = [
                protocol.canonical_json(
                    protocol.strip_timing(
                        protocol.encode_report(session.advance(epoch.post, epoch.spec))
                    )
                )
                for epoch in tenant.stream.epochs
            ]
        if plant:
            reference = inputs.tenants[0].reference
            reference[0] = reference[0].replace(b'"verdict":"holds"', b'"verdict":"violated"')

    def measure(self, inputs: ServeInputs, _reference: None, seconds: float) -> Window:
        daemon = inputs.daemon
        window = Window()
        lock = threading.Lock()
        errors: list[BaseException] = []
        this = Round()
        window.rounds.append(this)
        before = daemon.open_window()
        started = time.perf_counter()

        def tenant_loop(tenant: TenantStream) -> None:
            name = tenant.tenant
            session, epoch, created = 0, 0, True
            while time.perf_counter() - started < seconds and not errors:
                if epoch == len(tenant.bodies) and created:
                    # Stream exhausted: replay it over a fresh session.
                    daemon.request("DELETE", f"/v1/sessions/{name}/s{session}")
                    session, epoch, created = session + 1, 0, False
                if not created:
                    status, _ = daemon.request(
                        "POST", f"/v1/sessions/{name}/s{session}", tenant.initial_body
                    )
                    created = status == 200
                    if not created:
                        with lock:
                            window.attempted += 1
                            window.fail(f"{name}: session create answered {status}")
                        continue
                unit_started = time.perf_counter()
                status, payload = daemon.request(
                    "POST", f"/v1/sessions/{name}/s{session}/advance", tenant.bodies[epoch]
                )
                elapsed = time.perf_counter() - unit_started
                with lock:
                    window.attempted += 1
                    if status != 200:
                        # Not advanced: the same epoch is sent again.
                        window.fail(f"{name} epoch {epoch}: HTTP {status}")
                        continue
                    report = payload["report"]
                    if report["verdict"] == "unknown":
                        window.fail(f"{name} epoch {epoch}: unknown verdict")
                    elif (
                        protocol.canonical_json(protocol.strip_timing(report))
                        != tenant.reference[epoch]
                    ):
                        raise WrongOutput(f"{name} epoch {epoch}: served report differs")
                    else:
                        this.latencies.append(elapsed)
                        window.counters["verifier.checks.naive"] += report["unique_checks"]
                        window.counters["verifier.checks.cached"] += report["cached_checks"]
                        window.counters["verifier.checks.executed"] += (
                            report["unique_checks"] - report["cached_checks"]
                        )
                        window.counters["verifier.runtime.retries"] += report["retried_checks"]
                        window.counters["verifier.runtime.pool_rebuilds"] += report["pool_rebuilds"]
                        window.counters["verifier.failed_checks"] += len(report["failed_checks"])
                epoch += 1

        def guarded(tenant: TenantStream) -> None:
            try:
                tenant_loop(tenant)
            except BaseException as error:  # noqa: BLE001 - re-raised on the main thread
                errors.append(error)

        threads = [threading.Thread(target=guarded, args=(tenant,)) for tenant in inputs.tenants]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # The client loop is one round: its first epochs run the checks, so
        # slices of it would not be rounds of identical work.
        window.wall_s = this.seconds = time.perf_counter() - started
        if errors:
            raise errors[0]
        after = daemon.request("GET", "/healthz")[1]
        window.peak_rss_mb = daemon.vm_hwm_mb()
        for key in (
            "pools_created",
            "pool_rebuilds",
            "bypassed_requests",
            "context_payload_sends",
            "context_misses",
        ):
            window.counters[f"serve.pool.{key}"] = after["pool"][key] - before["pool"][key]
        window.counters["serve.admission.rejected"] = (
            after["admission"]["rejected"] - before["admission"]["rejected"]
        )
        window.remote_spans = inputs.close()
        return window
