"""Vectorized residual engine: batched Eqn. 3 evaluation without redundant work.

Every sub-bin search in the receiver -- offset refinement (Algm. 1), the
delay search, SIC cluster consolidation, the Fig. 4 surface -- reduces to
"score the reconstruction residual at many trial offsets".  The scalar
reference (:func:`repro.core.residual.residual_power`) rebuilds the full
tone matrix and runs an SVD-based ``np.linalg.lstsq`` per trial, which made
decode the pipeline bottleneck.  :class:`ResidualEngine` owns the preamble
windows once and removes the redundancy:

* **Cached bases** -- the sample-index phasor basis and per-user tone
  columns are memoized on ``(n_samples, position, delay)``, so the fixed
  users' columns are never rebuilt across trials, sweeps, or SIC tiers.
* **Normal equations** -- channel solves use the Gram system
  ``G h = E^H z`` (one ``K x K`` LU solve) instead of a per-call SVD, and
  the residual comes from the fit identity
  ``R = ||z||^2 - Re(b^H h)`` without materializing the reconstruction.
* **Rank-1 candidate scoring** -- during coordinate descent only user
  ``k``'s column changes, so :class:`CandidateView` factors the other
  users' Gram block once and scores a whole *vector* of trial columns via
  the Schur complement: per batch, one ``(N x J) x (N x C)`` GEMM and
  O(J^2 (C + M)) solve work, instead of C full refactorizations.
* **Batched full evaluation** -- :meth:`ResidualEngine.residuals_at`
  scores a stack of complete trial-offset vectors with one batched
  ``np.linalg.solve`` (used by the Fig. 4 surface, where two columns vary
  at once).

Per-trial complexity for M windows, K users, N samples, C candidates:

==============================  ======================================
Path                            Cost per candidate
==============================  ======================================
scalar ``residual_power``       SVD ``O(N K^2)`` + matrix build ``O(NK)``
engine ``residual``             ``O(N K^2)`` GEMM, cached columns
engine ``residuals_at``         ``O(N K^2 + N K M / C)`` batched BLAS
``CandidateView.residuals``     ``O(N (J + M))`` amortized, one GEMM
==============================  ======================================

Agreement with the scalar path is exact up to conditioning: tests assert
``<= 1e-9`` on residual values and ``<= tol_bins`` on refined positions.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro import observe
from repro.core.dechirp import cached_sample_index
from repro.profile.profiler import shape_bucket

#: Relative Schur-complement floor below which a candidate column is
#: treated as linearly dependent on the fixed users' columns (the fit gain
#: is then zero, matching the pseudo-inverse limit of the scalar path).
_SCHUR_FLOOR = 1e-12


@lru_cache(maxsize=4096)
def _cached_column(n_samples: int, mu: float, delta: float) -> np.ndarray:
    """One user's (possibly delay-aware) model column, memoized read-only.

    Reproduces :func:`repro.core.chanest.tone_matrix` column-by-column: a
    pure tone at ``mu`` bins whose first ``delta`` samples carry the
    boundary-glitch phase jump ``exp(2j*pi*(N/2 - delta))``.
    """
    n = cached_sample_index(n_samples)
    column = np.exp(2j * np.pi * np.outer(n, [mu]) / n_samples)[:, 0]
    delta = float(delta % n_samples)
    if delta > 0.0:
        head = n < delta
        column[head] *= np.exp(2j * np.pi * (n_samples / 2.0 - delta))
    column.setflags(write=False)
    return column


def _phasor_columns(n: np.ndarray, mus: np.ndarray, n_samples: int) -> np.ndarray:
    """Pure-tone columns ``exp(2j*pi*n*mu/N)`` for each ``mu``.

    Bracket searches evaluate *uniform* grids, and a uniform grid is a
    geometric progression in the phasor domain: ``col(mu + c*step) =
    col(mu) * ratio**c``.  Detecting that case replaces the dense ``N x C``
    complex exp (the single hottest kernel in coordinate descent) with two
    length-``N`` exps and ``C - 1`` complex multiplies; the accumulated
    round-off over a bracket-sized grid is ~``C * eps``, far below the
    1e-9 agreement bound the tests assert.
    """
    if mus.size >= 3:
        diffs = np.diff(mus)
        step = diffs[0]
        if np.all(np.abs(diffs - step) <= 1e-12):
            first = np.exp(2j * np.pi * n * (mus[0] / n_samples))
            columns = np.empty((n.size, mus.size), dtype=complex)
            columns[:, 0] = first
            if abs(step) <= 1e-15:
                columns[:, 1:] = first[:, None]
                return columns
            ratio = np.exp(2j * np.pi * n * (step / n_samples))
            columns[:, 1:] = ratio[:, None]
            np.cumprod(columns, axis=1, out=columns)
            return columns
        # Batches like repeat(grid, D) (one column per (mu, delta) pair)
        # revisit each mu D times; compute unique columns and fan out.
        unique, inverse = np.unique(mus, return_inverse=True)
        if unique.size <= mus.size // 2:
            return _phasor_columns(n, unique, n_samples)[:, inverse]
    return np.exp(2j * np.pi * np.outer(n, mus) / n_samples)


def _candidate_columns(
    n_samples: int, mus: np.ndarray, deltas: object
) -> np.ndarray:
    """Stack of trial columns, shape ``(n_samples, n_candidates)``.

    ``mus`` and ``deltas`` broadcast against each other; ``deltas=None``
    means the pure-tone model (all delays zero).  A scalar delay shared by
    every candidate takes a prefix-slice fast path (the glitch head
    ``n < delta`` is a prefix of the sorted sample index).
    """
    mus = np.atleast_1d(np.asarray(mus, dtype=float))
    n = cached_sample_index(n_samples)
    columns = _phasor_columns(n, mus, n_samples)
    if deltas is None:
        return columns
    if np.ndim(deltas) == 0:
        delta = float(deltas) % n_samples
        if delta > 0.0:
            head = int(np.ceil(delta))
            columns[:head] *= np.exp(2j * np.pi * (n_samples / 2.0 - delta))
        return columns
    deltas_arr = np.asarray(deltas, dtype=float) % n_samples
    mus_b, deltas_arr = np.broadcast_arrays(mus, deltas_arr)
    if columns.shape[1] != deltas_arr.size:
        columns = np.repeat(columns, deltas_arr.size // columns.shape[1], axis=1)
    if np.any(deltas_arr > 0.0):
        # The glitch head is a prefix of the sorted sample index, so the
        # jump never applies where delta == 0 (n < 0 is empty) and the
        # whole adjustment is one in-place multiply by a selected factor.
        jump = np.exp(2j * np.pi * (n_samples / 2.0 - deltas_arr))
        columns *= np.where(
            n[:, None] < deltas_arr[None, :], jump[None, :], 1.0
        )
    return columns


class CandidateView:
    """Score trial columns against a *fixed* set of other users.

    Built once per coordinate (the fixed users' Gram block and fit are
    cached); each :meth:`residuals` call scores a whole candidate batch via
    the Schur complement of the bordered Gram system -- the incremental
    single-column update that makes coordinate descent O(K^2) per trial
    instead of a refactorization.
    """

    def __init__(
        self,
        engine: "ResidualEngine",
        fixed_positions: np.ndarray,
        fixed_delays: Optional[np.ndarray] = None,
    ) -> None:
        self._engine = engine
        e_o = engine.tone_columns(fixed_positions, fixed_delays)
        self._e_o = e_o
        self._e_o_conj_t = e_o.conj().T
        self._n_fixed = e_o.shape[1]
        if self._n_fixed:
            with observe.kernel(
                "engine.view_build",
                f"J{self._n_fixed}.M{engine.n_windows}",
                bytes_touched=e_o.nbytes + engine.windows.nbytes,
            ):
                gram = self._e_o_conj_t @ e_o
                b_o = self._e_o_conj_t @ engine.windows.T  # (J, M)
                try:
                    # The Gram block is factored ONCE per view; every
                    # candidate batch reuses it as a cached K x K inverse
                    # (one small GEMM per batch instead of a LAPACK solve
                    # per trial).
                    self._gram_inv: Optional[np.ndarray] = np.linalg.inv(
                        gram
                    )
                    self._q = self._gram_inv @ b_o
                except np.linalg.LinAlgError:
                    # Degenerate fixed set: fall back to the
                    # pseudo-inverse fit.
                    self._gram_inv = None
                    self._q, *_ = np.linalg.lstsq(
                        e_o, engine.windows.T, rcond=None
                    )
                self._b_o = b_o
                self.base_fit = float(np.sum((np.conj(b_o) * self._q).real))
        else:
            self._gram_inv = None
            self._b_o = np.zeros((0, engine.n_windows), dtype=complex)
            self._q = self._b_o
            self.base_fit = 0.0

    def _schur(
        self, mus: np.ndarray, deltas: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Schur complement ``s`` and innovation ``t`` per candidate.

        ``s[c]`` is the candidate column's energy unexplained by the fixed
        users; ``t[m, c]`` is window ``m``'s correlation against the
        candidate after projecting out the fixed users' fit.
        """
        engine = self._engine
        n_cand = max(np.size(mus), 0 if deltas is None else np.size(deltas))
        with observe.kernel(
            "engine.schur_score",
            f"M{engine.n_windows}.J{self._n_fixed}.C{shape_bucket(n_cand)}",
            bytes_touched=16
            * engine.n_samples
            * (n_cand + engine.n_windows + self._n_fixed),
        ):
            correlations = self._correlations(mus, deltas)
            if correlations is not None:
                w, u = correlations
            else:
                columns = _candidate_columns(engine.n_samples, mus, deltas)
                w = np.conj(engine.windows_conj @ columns)  # (M, C)
                if not self._n_fixed:
                    s = np.full(columns.shape[1], float(engine.n_samples))
                    return s, w
                u = self._e_o_conj_t @ columns  # (J, C)
            if not self._n_fixed:
                return np.full(w.shape[1], float(engine.n_samples)), w
            if self._gram_inv is not None:
                p = self._gram_inv @ u
            else:
                columns = _candidate_columns(engine.n_samples, mus, deltas)
                p, *_ = np.linalg.lstsq(self._e_o, columns, rcond=None)
            u_conj = np.conj(u)
            s = engine.n_samples - np.einsum("jc,jc->c", u_conj, p).real
            t = w - (u_conj.T @ self._q).T  # (M, C)
            return s, t

    def _correlations(
        self, mus: np.ndarray, deltas: Optional[np.ndarray]
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Candidate correlations ``(w, u)`` without materializing columns.

        Consolidation batches pair few unique tones with many trial delays
        (``repeat(mu_grid, D)``).  A delayed column differs from its pure
        tone only on the glitch head -- a *prefix* of the sample index
        scaled by the unit-magnitude jump -- so every inner product is the
        full-column product plus ``(jump - 1)`` times a prefix partial sum.
        Cumulative sums over the U unique tones give all C candidates by
        table lookup: O((M+J)*N*U + C*(M+J)) instead of O(N*C*(M+J)).
        Returns None when the batch shape does not profit (dense distinct
        tones, scalar/absent delays).
        """
        if deltas is None or np.ndim(deltas) == 0:
            return None
        engine = self._engine
        n_samples = engine.n_samples
        mus_arr = np.atleast_1d(np.asarray(mus, dtype=float))
        deltas_arr = np.asarray(deltas, dtype=float) % n_samples
        mus_b, deltas_b = np.broadcast_arrays(mus_arr, deltas_arr)
        unique, inverse = np.unique(mus_b, return_inverse=True)
        if unique.size * 4 > mus_b.size:
            return None
        n = cached_sample_index(n_samples)
        base = _phasor_columns(n, unique, n_samples)  # (N, U)
        heads = np.ceil(deltas_b).astype(int)  # head = {n : n < delta}
        jump = np.where(
            deltas_b > 0.0,
            np.exp(2j * np.pi * (n_samples / 2.0 - deltas_b)),
            1.0,
        )
        m_idx = np.arange(engine.n_windows)[:, None]
        # w[m, c] = <window_m, col_c>; prefix tables P[m, u, r] hold the
        # partial products over samples n < r.
        prefix = np.zeros(
            (engine.n_windows, unique.size, n_samples + 1), dtype=complex
        )
        np.cumsum(
            engine.windows[:, None, :] * np.conj(base.T)[None, :, :],
            axis=2,
            out=prefix[:, :, 1:],
        )
        w = prefix[:, :, -1][:, inverse] + (np.conj(jump) - 1.0)[None, :] * (
            prefix[m_idx, inverse[None, :], heads[None, :]]
        )
        if not self._n_fixed:
            return w, np.zeros((0, mus_b.size), dtype=complex)
        # u[j, c] = <e_j, col_c> (column NOT conjugated -> jump, not conj).
        j_idx = np.arange(self._n_fixed)[:, None]
        prefix_u = np.zeros(
            (self._n_fixed, unique.size, n_samples + 1), dtype=complex
        )
        np.cumsum(
            self._e_o_conj_t[:, None, :] * base.T[None, :, :],
            axis=2,
            out=prefix_u[:, :, 1:],
        )
        u = prefix_u[:, :, -1][:, inverse] + (jump - 1.0)[None, :] * (
            prefix_u[j_idx, inverse[None, :], heads[None, :]]
        )
        return w, u

    def residuals(
        self, mus: np.ndarray, deltas: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Summed residual power for each candidate column (one BLAS pass)."""
        engine = self._engine
        s, t = self._schur(mus, deltas)
        gain = np.zeros(s.shape)
        usable = s > _SCHUR_FLOOR * engine.n_samples
        if np.any(usable):
            gain[usable] = (
                np.sum(np.abs(t[:, usable]) ** 2, axis=0) / s[usable]
            )
        return np.maximum(engine.energy - self.base_fit - gain, 0.0)

    def candidate_channels(
        self, mus: np.ndarray, deltas: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-window LS amplitude of each candidate column, shape ``(M, C)``.

        This is the candidate's row of the joint fit (fixed users + the
        candidate); its per-window phase slope anchors ``frac(delta)``
        during cluster consolidation.
        """
        s, t = self._schur(mus, deltas)
        s = np.maximum(s, _SCHUR_FLOOR * self._engine.n_samples)
        return t / s[None, :]

    def minimize(
        self,
        lo: float,
        hi: float,
        tol: float = 1e-3,
        n_grid: int = 17,
        vary: str = "position",
        fixed: Optional[float] = None,
    ) -> float:
        """Batched bracketing search for the best candidate in ``[lo, hi]``.

        Evaluates ``n_grid`` equispaced candidates per round in one batch
        and shrinks the bracket around the minimum -- the vectorized
        replacement for the scalar golden-section loop (the bracket shrinks
        by ``2/(n_grid-1)`` per round, so convergence needs a handful of
        GEMM calls instead of dozens of sequential solves).

        ``vary`` selects which model parameter the bracket spans:
        ``"position"`` sweeps ``mu`` with the delay held at ``fixed``;
        ``"delay"`` sweeps the delay (clamped at zero) with ``mu`` held at
        ``fixed``.
        """
        if vary not in ("position", "delay"):
            raise ValueError(f"unknown vary kind: {vary!r}")
        a, b = float(lo), float(hi)
        grid = np.zeros(0)
        values = np.zeros(0)
        best = 0
        # Bracket to ~20x the tolerance, where the locally convex residual
        # (Fig. 4) is well inside its quadratic basin, then land the final
        # sub-tolerance step with one parabolic interpolation -- two or
        # three batched rounds replace ~30 sequential golden-section evals.
        while (b - a) > 20.0 * tol:
            grid = np.linspace(a, b, n_grid)
            if vary == "position":
                values = self.residuals(grid, fixed)
            else:
                values = self.residuals(
                    np.full(n_grid, fixed if fixed is not None else 0.0),
                    np.maximum(grid, 0.0),
                )
            best = int(np.argmin(values))
            a = grid[max(best - 1, 0)]
            b = grid[min(best + 1, n_grid - 1)]
        if grid.size == 0 or best == 0 or best == n_grid - 1:
            # Never sampled (bracket started small) or the minimum sits on
            # the bracket edge: sample once more so the vertex fit has an
            # interior triplet.
            grid = np.linspace(a, b, n_grid)
            if vary == "position":
                values = self.residuals(grid, fixed)
            else:
                values = self.residuals(
                    np.full(n_grid, fixed if fixed is not None else 0.0),
                    np.maximum(grid, 0.0),
                )
            best = int(np.argmin(values))
        if best == 0 or best == n_grid - 1:
            return float(grid[best])
        left, mid, right = values[best - 1], values[best], values[best + 1]
        denom = left - 2.0 * mid + right
        step = grid[1] - grid[0]
        if denom <= 0.0:
            return float(grid[best])
        vertex = grid[best] + 0.5 * (left - right) / denom * step
        return float(np.clip(vertex, grid[best] - step, grid[best] + step))


def fit_columns(columns: np.ndarray, targets: np.ndarray) -> Tuple[np.ndarray, float]:
    """Least-squares amplitudes of ``targets`` on ``columns`` (Eqn. 2).

    ``columns`` is ``(N, K)``; ``targets`` is one window ``(N,)`` or a
    stack ``(N, M)``.  Solves the Gram system ``G h = E^H z`` with one
    ``K x K`` LU solve, falling back to ``np.linalg.lstsq`` only when the
    Gram matrix is exactly singular, and returns ``h`` (shape ``(K,)`` or
    ``(K, M)``) with the total fit power ``Re(b^H h)``, so the residual
    power is ``||z||^2`` minus it.  The engine's residual search and the
    data stage's subtract (:class:`repro.core.decoder.ChoirDecoder`) both
    fit through it.
    """
    adjoint = columns.conj().T
    gram = adjoint @ columns
    b = adjoint @ targets
    try:
        h = np.linalg.solve(gram, b)
    except np.linalg.LinAlgError:
        h, *_ = np.linalg.lstsq(columns, targets, rcond=None)
    fit = float(np.sum((np.conj(b) * h).real))
    return h, fit


class ResidualEngine:
    """Owns a stack of dechirped windows; evaluates Eqn. 3 without waste.

    Parameters
    ----------
    windows:
        One dechirped window (1-D) or a stack ``(n_windows, n_samples)``.
        The array is copied defensively only if not already complex.
    """

    def __init__(self, windows: np.ndarray) -> None:
        rows = np.atleast_2d(np.asarray(windows))
        if not np.iscomplexobj(rows):
            rows = rows.astype(complex)
        self.windows = rows
        #: Conjugated windows, precomputed once: candidate scoring needs
        #: ``Z conj(E)`` per batch and ``conj(conj(Z) E)`` avoids the
        #: ``N x C`` conjugate copy of the (much larger) column block.
        self.windows_conj = np.conj(rows)
        self.n_windows = int(rows.shape[0])
        self.n_samples = int(rows.shape[-1])
        #: Total window energy ``||Z||^2`` -- the zero-user residual.
        self.energy = float(np.sum(np.abs(rows) ** 2))

    # ------------------------------------------------------------------
    # Model assembly
    # ------------------------------------------------------------------
    def tone_columns(
        self,
        positions_bins: np.ndarray,
        delays_samples: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Tone matrix ``(n_samples, K)`` assembled from cached columns."""
        positions = np.atleast_1d(np.asarray(positions_bins, dtype=float))
        if positions.size == 0:
            return np.zeros((self.n_samples, 0), dtype=complex)
        if delays_samples is None:
            delays = np.zeros(positions.size)
        else:
            delays = np.atleast_1d(np.asarray(delays_samples, dtype=float))
            if delays.size != positions.size:
                raise ValueError("delays_samples must match positions_bins in length")
        return np.stack(
            [
                _cached_column(self.n_samples, float(mu), float(delta))
                for mu, delta in zip(positions, delays)
            ],
            axis=-1,
        )

    def _fit(self, e: np.ndarray) -> Tuple[np.ndarray, float]:
        """Normal-equations LS fit: per-window channels and total fit power."""
        if e.shape[1] == 0:
            return np.zeros((self.n_windows, 0), dtype=complex), 0.0
        with observe.kernel(
            "engine.gram_solve",
            f"K{e.shape[1]}.M{self.n_windows}",
            bytes_touched=e.nbytes + self.windows.nbytes,
        ):
            h, fit = fit_columns(e, self.windows.T)
            return h.T, fit

    # ------------------------------------------------------------------
    # Residual evaluation
    # ------------------------------------------------------------------
    def residual(
        self,
        positions_bins: np.ndarray,
        delays_samples: Optional[np.ndarray] = None,
    ) -> float:
        """Summed residual power at one trial offset vector (Eqn. 3)."""
        _, fit = self._fit(self.tone_columns(positions_bins, delays_samples))
        return max(self.energy - fit, 0.0)

    def channels(
        self,
        positions_bins: np.ndarray,
        delays_samples: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-window channel estimates ``(n_windows, K)`` (Eqn. 2)."""
        h, _ = self._fit(self.tone_columns(positions_bins, delays_samples))
        return h

    def residuals_at(
        self,
        candidates: np.ndarray,
        delays_samples: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Score a whole stack of trial offset vectors in one batched solve.

        ``candidates`` has shape ``(C, K)`` (or ``(C,)`` for K=1);
        ``delays_samples`` may be ``None``, per-user ``(K,)``, or
        per-candidate ``(C, K)``.  Returns the ``C`` residual powers.
        """
        candidates = np.asarray(candidates, dtype=float)
        if candidates.ndim == 1:
            candidates = candidates[:, None]
        n_cand, n_users = candidates.shape
        if n_users == 0:
            return np.full(n_cand, self.energy)
        with observe.kernel(
            "engine.batched_solve",
            f"C{shape_bucket(n_cand)}.K{n_users}",
            bytes_touched=16 * n_cand * self.n_samples * n_users,
        ):
            return self._residuals_at_batched(
                candidates, delays_samples, n_cand, n_users
            )

    def _residuals_at_batched(
        self,
        candidates: np.ndarray,
        delays_samples: Optional[np.ndarray],
        n_cand: int,
        n_users: int,
    ) -> np.ndarray:
        """The batched-solve body of :meth:`residuals_at`."""
        n = cached_sample_index(self.n_samples)
        e = np.exp(
            2j * np.pi * n[None, :, None] * candidates[:, None, :] / self.n_samples
        )  # (C, N, K)
        if delays_samples is not None:
            deltas = np.asarray(delays_samples, dtype=float)
            if deltas.ndim == 1:
                deltas = np.broadcast_to(deltas, (n_cand, n_users))
            deltas = deltas % self.n_samples
            if np.any(deltas > 0.0):
                jump = np.exp(2j * np.pi * (self.n_samples / 2.0 - deltas))
                head = n[None, :, None] < deltas[:, None, :]
                e = np.where(
                    head & (deltas > 0.0)[:, None, :], e * jump[:, None, :], e
                )
        gram = np.einsum("cnk,cnl->ckl", np.conj(e), e)
        b = np.einsum("cnk,mn->ckm", np.conj(e), self.windows)
        try:
            h = np.linalg.solve(gram, b)
        except np.linalg.LinAlgError:
            # Some candidate's Gram block is singular: score one by one so
            # only the degenerate entries pay the pseudo-inverse path.
            out = np.empty(n_cand)
            deltas_arr = (
                None
                if delays_samples is None
                else np.broadcast_to(
                    np.asarray(delays_samples, dtype=float), (n_cand, n_users)
                )
            )
            for c in range(n_cand):
                out[c] = self.residual(
                    candidates[c], None if deltas_arr is None else deltas_arr[c]
                )
            return out
        fit = np.einsum("ckm,ckm->c", np.conj(b), h).real
        return np.maximum(self.energy - fit, 0.0)

    # ------------------------------------------------------------------
    # Coordinate-descent refinement (Algm. 1, vectorized)
    # ------------------------------------------------------------------
    def view(
        self,
        positions_bins: np.ndarray,
        delays_samples: Optional[np.ndarray],
        k: int,
    ) -> CandidateView:
        """A :class:`CandidateView` with user ``k`` removed from the model."""
        positions = np.atleast_1d(np.asarray(positions_bins, dtype=float))
        keep = np.ones(positions.size, dtype=bool)
        keep[k] = False
        delays = (
            None
            if delays_samples is None
            else np.atleast_1d(np.asarray(delays_samples, dtype=float))[keep]
        )
        return CandidateView(self, positions[keep], delays)

    def refine(
        self,
        coarse_positions: np.ndarray,
        half_width_bins: float = 0.6,
        delays_samples: Optional[np.ndarray] = None,
        n_sweeps: int = 2,
        tol_bins: float = 1e-3,
        n_grid: int = 17,
    ) -> np.ndarray:
        """Cyclic coordinate refinement with batched bracketing (Algm. 1).

        Functionally matches the scalar reference
        :func:`repro.core.offsets.refine_offsets_scalar` (tests assert
        agreement within ``tol_bins``) while scoring each bracket
        round as a single batch against a per-coordinate
        :class:`CandidateView`.
        """
        positions = np.atleast_1d(np.asarray(coarse_positions, dtype=float)).copy()
        if positions.size == 0:
            return positions
        delays = (
            None
            if delays_samples is None
            else np.atleast_1d(np.asarray(delays_samples, dtype=float))
        )
        with observe.kernel("engine.refine", f"K{positions.size}.M{self.n_windows}"):
            return self._refine_sweeps(
                positions, delays, half_width_bins, n_sweeps, tol_bins, n_grid
            )

    def _refine_sweeps(
        self,
        positions: np.ndarray,
        delays: Optional[np.ndarray],
        half_width_bins: float,
        n_sweeps: int,
        tol_bins: float,
        n_grid: int,
    ) -> np.ndarray:
        """The cyclic sweep body of :meth:`refine`."""
        prev_move = np.full(positions.size, np.inf)
        for sweep in range(n_sweeps):
            moved = np.zeros(positions.size)
            for k in range(positions.size):
                fixed_delta = None if delays is None else float(delays[k])
                view = self.view(positions, delays, k)
                # After the first sweep each coordinate only absorbs the
                # leakage from its neighbors' updates, so the bracket can
                # shrink toward the previous movement -- with a full-width
                # retry if the narrowed bracket clips the minimum.
                if sweep == 0:
                    width = half_width_bins
                else:
                    width = min(
                        half_width_bins,
                        max(40.0 * tol_bins, 4.0 * float(prev_move[k])),
                    )
                updated = view.minimize(
                    positions[k] - width,
                    positions[k] + width,
                    tol=tol_bins,
                    n_grid=n_grid,
                    fixed=fixed_delta,
                )
                if width < half_width_bins and abs(updated - positions[k]) > 0.9 * width:
                    updated = view.minimize(
                        positions[k] - half_width_bins,
                        positions[k] + half_width_bins,
                        tol=tol_bins,
                        n_grid=n_grid,
                        fixed=fixed_delta,
                    )
                moved[k] = abs(updated - positions[k])
                positions[k] = updated
            prev_move = moved
            if float(moved.max()) <= tol_bins:
                # Converged: another sweep could move nothing beyond tol.
                break
        return positions
