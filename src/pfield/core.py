"""Shared energy bookkeeping for a particle dragging a probability field.

The model couples a point particle (momentum p_P, kinetic energy K_P) to a
real stationary field chi(x) carrying energy of its own.  The composite obeys

    E      = E_P + E_F                    (total energy splits additively)
    p^2/2m = E_F + K_P                    (matter-wave momentum p = hbar*k)

so the field energy E_F measures how far the bound level sits above the bare
particle energy.  The classical limit is E_F -> 0; regions where
E_F + K_P < 0 are forbidden to the composite.  All quantities are SI.

column makes a kernel's column: an array('d') of the values, 8 bytes each
where a list of floats holds 32.

run_shares is the package's one route to more than one CPU and the one
owner of the block size: it hands a run of items (a table's rows, a running
integral's steps) to work in spans of BLOCK_ROWS, in shares [lo, hi) of
whole spans, one process per usable CPU; the bytes do not depend on that
split, and `taskset -c 0` gives one.  shared_doubles is the one memory
that those shares write and the caller reads, a 'd' memoryview over an
anonymous shared map: a share stores its floats there by index, so a
redone share overwrites what its child left.  The running integral keeps
its steps there and sums them where they lie, and flux-check the largest
|residual| of each span; no table needs a column whole, as each is
rendered span by span.
"""

from __future__ import annotations

import enum
import math
import os
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, NamedTuple

if TYPE_CHECKING:
    from array import array

PLANCK_H = 6.62607015e-34        # J s (exact)
HBAR = PLANCK_H / (2.0 * math.pi)
ELECTRON_MASS = 9.1093837015e-31  # kg
_E_CHARGE = 1.602176634e-19       # C (exact)
_EPSILON0 = 8.8541878128e-12      # F/m
GAUSSIAN_CHARGE_SQ = _E_CHARGE**2 / (4.0 * math.pi * _EPSILON0)  # e'^2, J m
BOHR_RADIUS = HBAR**2 / (ELECTRON_MASS * GAUSSIAN_CHARGE_SQ)     # m


def require_finite_positive(**values: float) -> None:
    """Raise ValueError naming the first value that is not finite and > 0."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def require_finite(**values: float) -> None:
    """Raise ValueError naming the first value that is nan or +-inf."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def require_level(n: float, lowest: int) -> None:
    """Raise ValueError naming n unless it is a whole number >= lowest,
    given as an int or an integral float."""
    whole = isinstance(n, int) or (isinstance(n, float) and n.is_integer())
    if not (whole and n >= lowest):
        raise ValueError(f"n must be a finite integer >= {lowest}, got {n!r}")


class EnergyBudget(NamedTuple):
    """Additive split of the total energy between particle and field."""

    e_total: float
    e_particle: float
    e_field: float
    k_particle: float
    v_particle: float
    k_field: float
    v_field: float


def energy_budget_check(b: EnergyBudget) -> bool:
    """True iff the three additive identities hold to 1e-12, relative.

    e_total = e_particle + e_field, e_particle = k_particle + v_particle,
    e_field = k_field + v_field.  Kinetic terms must be non-negative.
    """
    scale = max(abs(b.e_total), abs(b.e_particle), abs(b.e_field), 1e-300)

    def close(x: float, y: float) -> bool:
        return math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12 * scale)
    return (close(b.e_total, b.e_particle + b.e_field)
            and close(b.e_particle, b.k_particle + b.v_particle)
            and close(b.e_field, b.k_field + b.v_field)
            and b.k_particle >= 0.0 and b.k_field >= 0.0)


class RegionClass(enum.Enum):
    ALLOWED = "allowed"
    FORBIDDEN = "forbidden"
    CLASSICAL_LIMIT = "classical_limit"


def classify_region(e_field: float, k_particle: float, eps: float) -> RegionClass:
    """Classify a point of configuration space by its energy content.

    Forbidden wins over the classical-limit tag: a composite with
    E_F + K_P < 0 has imaginary matter-wave momentum there regardless of
    how small E_F itself is.
    """
    require_finite_positive(eps=eps)
    require_finite(e_field=e_field, k_particle=k_particle)
    if e_field + k_particle < 0.0:
        return RegionClass.FORBIDDEN
    if abs(e_field) <= eps:
        return RegionClass.CLASSICAL_LIMIT
    return RegionClass.ALLOWED


def column(values: Iterable[float]) -> array[float]:
    """values as an array('d'), taken one at a time, so no list of them is
    made first."""
    from array import array  # loaded on first call: import pfield skips it
    return array("d", values)


# Rows of a table, or steps of a running integral, per span of work.
BLOCK_ROWS = 1024


def _usable_cpus() -> int:
    """CPUs this process may run on, as nproc counts them; 1 where the
    platform cannot tell."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _run(work: Callable[[int, int], bytes], lo: int, hi: int, out: BinaryIO) -> None:
    """Write work(start, stop) to out for each BLOCK_ROWS span of [lo, hi)."""
    for start in range(lo, hi, BLOCK_ROWS):
        out.write(work(start, min(start + BLOCK_ROWS, hi)))


def _fork(work: Callable[[int, int], bytes], lo: int, hi: int, spool: BinaryIO) -> int | None:
    """Pid of a child that writes the share [lo, hi) to spool and exits 0,
    or exits 1 at the first error; None if fork fails."""
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        code = 1
        try:
            _run(work, lo, hi, spool)
            spool.flush()
            code = 0
        finally:
            os._exit(code)
    return pid


def run_shares(work: Callable[[int, int], bytes], items: int, out: BinaryIO) -> None:
    """Write work(start, stop) to out for each span of range(items), in order.

    range(items) is cut into spans of BLOCK_ROWS items, the last one
    stopping at items, and into shares, item ranges [lo, hi) of whole
    spans, one per usable CPU and never more than spans.  Each share after
    the first runs in a forked child that writes to a temporary file of
    its own; the first runs here, straight into out, and then each child's
    file is copied after it in order.  The bytes are those of the serial
    loop for any number of shares.  A share whose child fails, or whose
    fork fails, is redone here, so an error raised by work surfaces with
    the serial type and message, and a transient failure of a child heals.
    There is one share, and no fork, with one usable CPU, one span, no
    os.fork, or a second thread running.  No child outlives the call.
    """
    spans = -(-items // BLOCK_ROWS)
    count = max(min(spans, _usable_cpus()), 1)
    if count > 1:
        # Imported here, not at the top: only a call with more than one
        # share uses them, and import pfield stays as cheap as before.
        import shutil
        import signal
        import tempfile
        import threading
        if not hasattr(os, "fork") or threading.active_count() > 1:
            count = 1
    bounds = [min(spans * k // count * BLOCK_ROWS, items) for k in range(count + 1)]
    shares = list(zip(bounds, bounds[1:]))
    children: list[tuple[int, int, BinaryIO, int | None]] = []
    running: list[int] = []
    try:
        for lo, hi in shares[1:]:
            spool = tempfile.TemporaryFile()
            pid = _fork(work, lo, hi, spool)
            children.append((lo, hi, spool, pid))
            if pid is not None:
                running.append(pid)
        _run(work, *shares[0], out)
        for lo, hi, spool, pid in children:
            if pid is not None:
                _, status = os.waitpid(pid, 0)
                running.remove(pid)
                if status == 0:
                    spool.seek(0)
                    shutil.copyfileobj(spool, out)
                    continue
            _run(work, lo, hi, out)
    finally:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for _, _, spool, _ in children:
            spool.close()


def shared_doubles(count: int) -> memoryview:
    """A 'd' memoryview of count zeros in memory that forked processes
    share with this one: what a share stores in it, the caller reads."""
    import mmap  # loaded on first call: import pfield skips it
    # An anonymous map of 0 bytes is refused (EINVAL).
    return memoryview(mmap.mmap(-1, 8 * max(count, 1))).cast("d")[:count]
