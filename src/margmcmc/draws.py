"""Per-chain output container shared by both samplers, and the one
check of a chain's lengths."""

from dataclasses import dataclass

import numpy as np


def check_lengths(iterations, warmup):
    """Raise ValueError unless 0 <= warmup < iterations."""
    if not (0 <= warmup < iterations):
        raise ValueError("need 0 <= warmup < iterations")


@dataclass
class ChainDraws:
    draws: np.ndarray               # (n_kept, P) constrained parameter draws
    param_names: list
    warmup_time: float              # seconds spent in warmup iterations
    sampling_time: float            # seconds spent in kept iterations
    divergences: int = 0
    tree_depths: np.ndarray = None  # (n_kept,) NUTS only

    @property
    def wall_time(self):
        """Total computation time: warmup plus sampling."""
        return self.warmup_time + self.sampling_time

    def by_name(self, name):
        return self.draws[:, self.param_names.index(name)]


def stack_param_chains(chains):
    """dict param name -> (M, N) array across chains."""
    names = chains[0].param_names
    return {name: np.stack([c.by_name(name) for c in chains]) for name in names}
