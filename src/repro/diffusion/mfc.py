"""The asyMmetric Flipping Cascade (MFC) model — paper Algorithm 1.

MFC extends Independent Cascade to signed, state-carrying networks with
two signature behaviours (Sec. III-A2):

1. **Asymmetric boosting** — activation attempts across *positive*
   (trust) links succeed with probability ``min(1, α·w)`` where ``α > 1``
   is the asymmetric boosting coefficient; negative links use the raw
   weight ``w``.
2. **Flipping** — an already-active node ``v`` can have its state flipped
   by a *trusted* neighbour ``u`` (positive diffusion link ``u -> v``)
   holding a different state. A flipped node re-enters the frontier so
   its *new* state can propagate, but only across pairs it has not
   already tried: the one-attempt-per-ordered-pair rule below applies to
   flips exactly as to fresh activations, so a flip never re-rolls an
   attempt that already happened.

State update on success: ``s(v) = s(u) · s_D(u, v)``. Each ordered pair
``(u, v)`` is attempted at most once over the whole cascade, matching
IC's "no further attempts in subsequent rounds" convention that MFC
inherits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.diffusion.base import DiffusionModel, DiffusionResult
from repro.errors import InvalidModelParameterError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import Node, NodeState, Sign
from repro.utils.rng import RandomSource, spawn_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.compile import CompiledGraph


def boosted_probability(weight: float, sign: Sign, alpha: float) -> float:
    """The MFC attempt probability ``w̄`` for a link of given sign/weight.

    ``min(1, α·w)`` on positive links, plain ``w`` on negative links.
    """
    if sign is Sign.POSITIVE:
        return min(1.0, alpha * weight)
    return weight


class MFCModel(DiffusionModel):
    """Asymmetric Flipping Cascade simulator.

    Args:
        alpha: asymmetric boosting coefficient ``α > 1`` (paper default 3
            in the experiments). ``α = 1`` degrades gracefully to
            sign-aware IC with flips but no boost.
        allow_flips: keep True for the paper's model; False gives the
            boost-only ablation.
        max_rounds: safety valve for pathological inputs; the paper's
            process always terminates because each (u, v) pair is tried
            at most once.
        backend: kernel execution backend (``'python'``, ``'numpy'``,
            ``'auto'``; see :mod:`repro.kernel.backends`). ``None``
            defers to the ``REPRO_KERNEL_BACKEND`` environment default.
            The numpy backend is *statistically* identical, not
            bit-identical — see the backend package docstring — so
            trial-cache keys fork when a non-bit backend resolves.

    Raises:
        InvalidModelParameterError: on ``alpha < 1`` or bad max_rounds.
    """

    name = "mfc"

    def __init__(
        self,
        alpha: float = 3.0,
        allow_flips: bool = True,
        max_rounds: int = 1_000_000,
        backend: "str | None" = None,
    ) -> None:
        if not alpha >= 1.0:
            raise InvalidModelParameterError(
                f"alpha must be >= 1 (paper: alpha > 1), got {alpha!r}"
            )
        if max_rounds < 1:
            raise InvalidModelParameterError(f"max_rounds must be >= 1, got {max_rounds}")
        self.alpha = float(alpha)
        self.allow_flips = allow_flips
        self.max_rounds = max_rounds
        # Underscored, but model_digest special-cases it: a backend
        # resolving to the statistical tier forks cache keys.
        self._backend = backend

    @property
    def backend(self) -> "str | None":
        """The requested kernel backend (``None`` = environment default)."""
        return self._backend

    def run(
        self,
        diffusion: SignedDiGraph,
        seeds: Dict[Node, NodeState],
        rng: RandomSource = None,
    ) -> DiffusionResult:
        """Simulate Algorithm 1.

        Frontier processing is deterministic given the RNG: nodes within a
        round, and the targets of each node, are visited in sorted order.
        Runs on the CSR cascade kernel over the compiled graph.
        """
        # Imported lazily: repro.kernel imports repro.diffusion.base,
        # so a module-level import here would close a cycle.
        from repro.kernel.compile import compile_graph

        return self.run_compiled(compile_graph(diffusion), seeds, rng)

    def run_compiled(
        self,
        compiled: "CompiledGraph",
        seeds: Dict[Node, NodeState],
        rng: RandomSource = None,
    ) -> DiffusionResult:
        """Simulate over an already-compiled graph.

        Lets callers that hold a :class:`~repro.kernel.compile.CompiledGraph`
        — notably worker processes, which receive the compact compiled
        form instead of the dict-of-dict graph — skip re-compilation
        entirely.
        """
        from repro.kernel.cascade import check_seeds_compiled, run_mfc_compiled

        validated = check_seeds_compiled(compiled, seeds)
        random = spawn_rng(rng, self.name)
        return run_mfc_compiled(
            compiled,
            validated,
            random,
            alpha=self.alpha,
            allow_flips=self.allow_flips,
            max_rounds=self.max_rounds,
            backend=self._backend,
        )
