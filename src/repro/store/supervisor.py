"""Crash supervisor: keep a campaign running until it finishes — or
prove it cannot.

The supervisor runs ``python -m repro.store resume`` in a *child
process* and watches it from outside, the way an init system watches a
daemon: the child is free to die in every way the chaos layers can
arrange (SIGKILL, injected disk faults, simulated crashes, hangs) and
the supervisor's only job is to classify each death and act on the
:mod:`repro.store.exitcodes` taxonomy:

* ``ok`` — the campaign completed; one final ``fsck`` must come back
  clean before the supervisor calls the whole run ``complete``.
* ``resumable`` / ``killed`` / ``corrupt`` / ``stalled`` — run
  ``fsck --repair``, wait out a decorrelated-jitter backoff, respawn.
* ``unrecoverable`` — fsck proved data loss; stop immediately (unless
  ``allow_data_loss``) with ``loss_manifest.json`` naming exactly the
  lost page range.
* ``fatal`` — an unclassified failure (traceback, usage error); not
  worth retrying, stop as ``failed``.

Liveness is tracked through the campaign's ``heartbeat.json``, which
the child writes when its store opens, at every checkpoint, and
otherwise at most once per
:data:`~repro.store.campaign.HEARTBEAT_EVERY_SECONDS` of wall time
while pages land: a child whose heartbeat goes stale past
``heartbeat_timeout`` wall-seconds is declared stalled and SIGKILL'd —
which the journal is built to survive, so a stall costs one restart,
never data.

``fsck --repair`` runs before *every* spawn, so the child always opens
a verified store: rotted segments have been rebuilt, torn tails
truncated, corrupt checkpoints quarantined.  The headline guarantee
follows: under any mix of network chaos, kills, and scripted disk
faults, a supervised campaign either completes with a bit-identical
dataset (whenever the journal survives) or halts with a machine-
readable account of exactly what was lost.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.obs.metrics import Registry, get_registry

from .atomio import publish_bytes
from .doctor import FsckReport, fsck
from .exitcodes import classify

__all__ = [
    "CampaignSupervisor",
    "SUPERVISE_REPORT_NAME",
    "SuperviseOutcome",
    "SupervisorConfig",
]

SUPERVISE_REPORT_NAME = "supervise_report.json"
_HEARTBEAT_NAME = "heartbeat.json"  # mirrors campaign.HEARTBEAT_NAME


@dataclass
class SupervisorConfig:
    """Knobs for one supervised campaign."""

    #: Give up after this many respawns (the first spawn is free).
    max_restarts: int = 16
    #: Wall-seconds of heartbeat silence before the child is declared
    #: stalled and SIGKILL'd.  Generous: the child also goes quiet
    #: during world generation and journal replay at startup.
    heartbeat_timeout: float = 60.0
    #: How often the watchdog samples the child and its heartbeat.
    poll_interval: float = 0.25
    #: Decorrelated-jitter backoff between respawns (wall seconds):
    #: ``sleep = min(cap, uniform(base, prev * 3))``.
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: Seeds the backoff jitter so supervised runs are reproducible.
    seed: int = 0
    #: Proceed past proven data loss (resume from the best surviving
    #: cut, or from scratch) instead of halting unrecoverable.
    allow_data_loss: bool = False
    #: Interpreter for the child; defaults to this one.
    python: str | None = None


@dataclass
class SuperviseOutcome:
    """What one supervised run amounted to."""

    outcome: str  #: complete | unrecoverable | gave-up | failed
    attempts: list[dict] = field(default_factory=list)
    restarts: int = 0
    final_fsck: FsckReport | None = None

    @property
    def completed(self) -> bool:
        return self.outcome == "complete"

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "outcome": self.outcome,
            "restarts": self.restarts,
            "attempts": self.attempts,
            "final_fsck": (
                self.final_fsck.to_json_dict() if self.final_fsck else None
            ),
        }


class CampaignSupervisor:
    """Respawn-until-done driver for one campaign directory.

    ``child_args`` is appended to the child's ``resume`` command line —
    tests use it to re-arm ``--kill-after-pages`` on every incarnation.
    """

    def __init__(
        self,
        directory: str | Path,
        config: SupervisorConfig | None = None,
        child_args: list[str] | None = None,
        registry: Registry | None = None,
    ):
        self.directory = Path(directory)
        self.config = config if config is not None else SupervisorConfig()
        self.child_args = list(child_args or [])
        self.registry = registry if registry is not None else get_registry()
        self._rng = np.random.default_rng(self.config.seed)
        self._m_spawns = self.registry.counter(
            "supervisor.spawns", "Campaign child processes spawned"
        )
        self._m_stalls = self.registry.counter(
            "supervisor.stalls", "Children SIGKILL'd for a stale heartbeat"
        )
        self._m_exits = self.registry.counter(
            "supervisor.child_exits", "Child exits by classified outcome",
            labels=("outcome",),
        )

    # -- child lifecycle -----------------------------------------------------

    def _spawn(self) -> subprocess.Popen:
        python = self.config.python or sys.executable
        cmd = [
            python, "-m", "repro.store", "resume", "--dir", str(self.directory),
        ] + self.child_args
        self._m_spawns.inc()
        return subprocess.Popen(
            cmd,
            env=os.environ.copy(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )

    def _heartbeat_age(self, spawned_at: float) -> float:
        try:
            beat = (self.directory / _HEARTBEAT_NAME).stat().st_mtime
        except OSError:
            beat = 0.0
        return time.time() - max(beat, spawned_at)

    def _watch(self, proc: subprocess.Popen, spawned_at: float) -> str:
        """Wait for the child; SIGKILL it when the heartbeat goes stale.

        Returns the classified outcome word.
        """
        cfg = self.config
        while True:
            try:
                proc.wait(timeout=cfg.poll_interval)
            except subprocess.TimeoutExpired:
                if self._heartbeat_age(spawned_at) > cfg.heartbeat_timeout:
                    proc.kill()
                    proc.wait()
                    self._m_stalls.inc()
                    return "stalled"
                continue
            return classify(proc.returncode)

    def _backoff(self, previous: float) -> float:
        cfg = self.config
        delay = min(
            cfg.backoff_cap,
            float(self._rng.uniform(cfg.backoff_base, max(previous * 3, cfg.backoff_base))),
        )
        time.sleep(delay)
        return delay

    # -- the supervision loop ------------------------------------------------

    def run(self) -> SuperviseOutcome:
        cfg = self.config
        result = SuperviseOutcome(outcome="gave-up")
        delay = cfg.backoff_base
        attempt = 0
        while attempt <= cfg.max_restarts:
            attempt += 1
            # The child must always open a verified store: repair first.
            pre = fsck(self.directory, repair=True, registry=self.registry)
            if pre.lost_page_range is not None and not cfg.allow_data_loss:
                result.outcome = "unrecoverable"
                result.attempts.append({
                    "attempt": attempt,
                    "fsck": pre.to_json_dict(),
                    "outcome": "unrecoverable",
                })
                result.final_fsck = pre
                break

            spawned_at = time.time()
            proc = self._spawn()
            outcome = self._watch(proc, spawned_at)
            stderr = b""
            if proc.stderr is not None:
                stderr = proc.stderr.read()
                proc.stderr.close()
            self._m_exits.inc(outcome=outcome)
            record = {
                "attempt": attempt,
                "exit_code": proc.returncode,
                "outcome": outcome,
                "wall_seconds": round(time.time() - spawned_at, 3),
                "fsck": pre.to_json_dict(),
            }
            if outcome == "fatal" and stderr:
                record["stderr_tail"] = stderr.decode("utf-8", "replace")[-2000:]
            result.attempts.append(record)

            if outcome == "ok":
                # Trust, then verify: a clean exit still has to survive a
                # full read-back before the run is called complete.
                post = fsck(self.directory, registry=self.registry)
                result.final_fsck = post
                if post.status == "clean":
                    result.outcome = "complete"
                    break
                record["outcome"] = "dirty-after-exit"
            elif outcome == "unrecoverable":
                result.outcome = "unrecoverable"
                break
            elif outcome == "fatal":
                result.outcome = "failed"
                break
            if attempt <= cfg.max_restarts:
                result.restarts += 1
                delay = self._backoff(delay)
        if result.outcome in ("failed", "gave-up"):
            # A child that died unclassified may have been the first to
            # notice real damage (e.g. the journal vanished mid-run and
            # only archiving touched it).  Settle the question: repair
            # what is repairable, and if loss is proven, say so — with
            # the manifest — rather than reporting a vague failure.
            post = fsck(self.directory, repair=True, registry=self.registry)
            result.final_fsck = post
            if post.lost_page_range is not None and not cfg.allow_data_loss:
                result.outcome = "unrecoverable"
        self._write_report(result)
        return result

    def _write_report(self, result: SuperviseOutcome) -> None:
        publish_bytes(
            self.directory / SUPERVISE_REPORT_NAME,
            (json.dumps(result.to_json_dict(), indent=2) + "\n").encode("utf-8"),
            kind="manifest",
            durable=False,
        )
