"""Shared kinematics for a particle dragging a probability field.

The model couples a point particle (momentum p_P, kinetic energy K_P) to a
real stationary field chi(x) carrying energy of its own.  The composite obeys

    E      = E_P + E_F                    (total energy splits additively)
    p^2/2m = E_F + K_P                    (matter-wave momentum p = hbar*k)

so the field energy E_F measures how far the bound level sits above the bare
particle energy.  The classical limit is E_F -> 0; regions where
E_F + K_P < 0 are forbidden to the composite.

Composite (particle-field) kinematics along the curved path q(x):

    f_F  = m v_P^2 d|chi'|/dx + f_P |chi'|
    f_PF = g [ f_P sqrt(1 + chi'^2) + m v^2 chi' chi'' / sqrt(1 + chi'^2) ]
    K_PF = g^2 K_P (1 + chi'^2)

with g a dimensionless path-normalization constant (g = 1 unless a bound
geometry fixes it otherwise).  All quantities are SI.

run_shares is the package's one route to more than one CPU.  Work longer
than one block of BLOCK_ROWS rows (a table's rows, a running integral's
steps) is split across one process per usable CPU, and the bytes it
writes do not depend on that split; `taskset -c 0` gives one process.
"""

from __future__ import annotations

import enum
import math
import os
from typing import BinaryIO, Callable, NamedTuple

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


def energy_budget_check(b: EnergyBudget, rel_tol: float = 1e-12) -> bool:
    """True iff the three additive identities hold to rel_tol.

    e_total = e_particle + e_field, e_particle = k_particle + v_particle,
    e_field = k_field + v_field.  Kinetic terms must be non-negative.
    """
    scale = max(abs(b.e_total), abs(b.e_particle), abs(b.e_field), 1e-300)

    def close(x: float, y: float) -> bool:
        return math.isclose(x, y, rel_tol=rel_tol, abs_tol=rel_tol * scale)
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


def field_force_1d(m: float, v_p: float, chi_prime: float,
                   d_abs_chi_prime_dx: float, f_p: float) -> float:
    """Force the field exerts, f_F = m v_P^2 d|chi'|/dx + f_P |chi'|.

    The caller supplies d|chi'|/dx directly; at extrema of chi' the
    derivative of the absolute value is taken one-sidedly.  For a real
    stationary mode (chi'' = -k^2 chi) this reduces, on intervals where
    chi' > 0, to -m*wbar^2*chi + f_P*chi' with wbar^2 = v_P^2 k^2.
    """
    require_finite(m=m, v_p=v_p, chi_prime=chi_prime,
                   d_abs_chi_prime_dx=d_abs_chi_prime_dx, f_p=f_p)
    return m * v_p**2 * d_abs_chi_prime_dx + f_p * abs(chi_prime)


def kinetic_pf(k_particle: float, chi_prime_sq: float, g: float = 1.0) -> float:
    """Composite kinetic energy K_PF = g^2 K_P (1 + chi'^2)."""
    if not 0.0 <= k_particle < math.inf:
        raise ValueError("k_particle must be finite and non-negative")
    if not 0.0 <= chi_prime_sq < math.inf:
        raise ValueError("chi_prime_sq must be finite and non-negative")
    require_finite(g=g)
    return g**2 * k_particle * (1.0 + chi_prime_sq)


def pf_force_stationary(g: float, f_p: float, chi_prime: float,
                        chi_second: float, m: float, v: float) -> float:
    """Composite force along the path for a stationary real field.

    f_PF = g [ f_P sqrt(1 + chi'^2) + m v^2 chi' chi'' / sqrt(1 + chi'^2) ].
    Equals m d^2 q/dt^2 for uniform particle motion x = v t.
    """
    require_finite(g=g, f_p=f_p, chi_prime=chi_prime, chi_second=chi_second, m=m, v=v)
    root = math.sqrt(1.0 + chi_prime**2)
    return g * (f_p * root + m * v**2 * chi_prime * chi_second / root)


# Rows of a table, or steps of a running integral, per block of work.
BLOCK_ROWS = 1024


def _usable_cpus() -> int:
    """CPUs this process may run on, as nproc counts them; 1 where the
    platform cannot tell."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _fork(work: Callable[[int], bytes], share: range, spool: BinaryIO) -> int | None:
    """Pid of a child that writes work(b) for each b of share to spool and
    exits 0, or exits 1 at the first error; None if the fork fails."""
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        code = 1
        try:
            for b in share:
                spool.write(work(b))
            spool.flush()
            code = 0
        finally:
            os._exit(code)
    return pid


def run_shares(work: Callable[[int], bytes], blocks: int, out: BinaryIO) -> None:
    """Write work(0), work(1), ..., work(blocks - 1) to out, in that order.

    range(blocks) is cut into contiguous shares, one per usable CPU and
    never more than blocks.  Each share after the first runs in a forked
    child that writes to a temporary file of its own; the first runs here,
    straight into out, and then each child's file is copied after it in
    order.  The bytes are those of the serial loop for any number of
    shares.  A share whose child fails, or whose fork fails, is redone
    here, so an error raised by work surfaces with the serial type and
    message, and a transient failure of a child heals.  There is one share,
    and no fork, with one usable CPU, one block, no os.fork, or a second
    thread running.  No child outlives the call.
    """
    count = min(blocks, _usable_cpus())
    if count > 1:
        # Imported here, not at the top: only a call with more than one
        # share uses them, and import pfield stays as cheap as before.
        import shutil
        import signal
        import tempfile
        import threading
        if not hasattr(os, "fork") or threading.active_count() > 1:
            count = 1
    count = max(count, 1)
    bounds = [blocks * k // count for k in range(count + 1)]
    shares = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    children: list[tuple[range, BinaryIO, int | None]] = []
    running: list[int] = []
    try:
        for share in shares[1:]:
            spool = tempfile.TemporaryFile()
            pid = _fork(work, share, spool)
            children.append((share, spool, pid))
            if pid is not None:
                running.append(pid)
        for b in shares[0]:
            out.write(work(b))
        for share, spool, pid in children:
            if pid is not None:
                _, status = os.waitpid(pid, 0)
                running.remove(pid)
                if status == 0:
                    spool.seek(0)
                    shutil.copyfileobj(spool, out)
                    continue
            for b in share:
                out.write(work(b))
    finally:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for _, spool, _ in children:
            spool.close()
