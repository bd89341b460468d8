"""Operations, verdicts and accuracy digits shared by the three workloads.

An operation is one call into cpintegral that the benchmark times; its
check runs afterwards, outside the timed pass, against a reference the
benchmark computes itself.  An operation fails when the program signals
failure (exception, non-zero exit, unconverged result) or when a check on
its output does not hold.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

DIGITS_CAP = 16.0

# Operations that fail on every run because of faults in the program.  They
# stay in the cli_jobs workload, counted as failed, so that a fix shows.
KNOWN_FAULTS = (
    "cli.normprime.sineStrip-n1-tol1e-6",
    "cli.norm.sineStrip-n1-tol1e-8",
    "cli.usage.bad-params-json",
    "cli.usage.nan-interval-endpoint",
    "cli.usage.convolve-l1-negative-z",
)


@dataclass
class Raised:
    """Output of an operation that raised instead of returning."""

    exc: BaseException

    def __repr__(self):
        return f"raised {type(self.exc).__name__}: {self.exc}"


@dataclass
class Op:
    """One timed call into the program plus the check of its output.

    check(out, outputs, verdict) may read other operations' outputs by name
    (the grid-file round trips need the writer's report).
    """

    name: str
    group: str
    run: Callable[[], Any]
    check: Callable[[Any, dict, "Verdict"], None]


def build_ops(wl, seed, workdir):
    """A workload module's operations for a seed, each with its check."""
    params = wl.inputs(seed)
    if hasattr(wl, "stage"):
        wl.stage(params, workdir)
    runs = wl.program(params, workdir)
    checks = wl.checks(params, workdir)
    if set(checks) != {name for name, _, _ in runs}:
        raise RuntimeError(f"{wl.NAME}: every operation needs exactly one check")
    return [Op(name, group, run, checks[name]) for name, group, run in runs]


def digits(value, exact):
    """min(16, -log10(|value - exact| / max(|exact|, 1)))."""
    err = abs(float(value) - float(exact))
    if err == 0.0:
        return DIGITS_CAP
    if not math.isfinite(err):
        return 0.0
    return min(DIGITS_CAP, -math.log10(err / max(abs(float(exact)), 1.0)))


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    digits: float | None = None

    def require(self, cond, message):
        if not cond:
            self.problems.append(message)
        return bool(cond)

    def known(self, value, exact):
        """Record the accuracy of a result whose exact value is known."""
        d = digits(value, exact)
        self.digits = d if self.digits is None else min(self.digits, d)

    def refinement(self, value, error_estimate, converged, exact, tol):
        """A converged refinement result must lie within tol + errorEstimate."""
        if not self.require(converged, "reported unconverged"):
            return
        gap = abs(float(value) - float(exact))
        self.require(
            gap <= tol + float(error_estimate),
            f"|value - exact| = {gap:.3e} exceeds tol + errorEstimate = {tol + float(error_estimate):.3e}",
        )
        self.known(value, exact)

    def grid_sup(self, value, exact_sup):
        """A grid supremum is a lower bound of the exact supremum."""
        slack = 1e-12 * max(1.0, abs(exact_sup))
        self.require(value <= exact_sup + slack, f"grid sup {value!r} exceeds exact sup {exact_sup!r}")

    def close(self, value, exact, tol, what="value"):
        gap = abs(float(value) - float(exact))
        self.require(gap <= tol, f"{what} {value!r} differs from {exact!r} by {gap:.3e} > {tol:.1e}")


def run_pass(ops):
    """Run every operation once.

    Returns (wall seconds, {name: output}, {name: seconds}).
    """
    outputs, seconds = {}, {}
    clock = time.perf_counter
    t0 = clock()
    for op in ops:
        t = clock()
        try:
            outputs[op.name] = op.run()
        except Exception as exc:  # the op's failure is part of its result
            outputs[op.name] = Raised(exc)
        seconds[op.name] = clock() - t
    return clock() - t0, outputs, seconds


def check_pass(ops, outputs):
    """Check every output; returns ({name: problems}, {name: digits})."""
    failed, accuracy = {}, {}
    for op in ops:
        out = outputs[op.name]
        v = Verdict()
        if isinstance(out, Raised):
            v.problems.append(repr(out))
        else:
            try:
                op.check(out, outputs, v)
            except Exception as exc:  # a malformed output fails its check
                v.problems.append(f"check could not read the output: {type(exc).__name__}: {exc}")
        if v.problems:
            failed[op.name] = v.problems
        elif v.digits is not None:
            accuracy[op.name] = v.digits
    return failed, accuracy
