"""Spies that observe the round engine. The engine's rules look up
`local_round` and `lamb_step` through `federation`'s namespace when they run,
so wrapping those names sees every call without any option in the engine."""

import pytest

from fedlamb import federation
from fedlamb.blocks import BlockVector

from helpers import block_norms


@pytest.fixture
def lamb_displacements(monkeypatch):
    """Wraps federation.lamb_step. The list it returns gets, per block of
    every row of every layer-wise step, (displacement norm, lr*phi(|theta|),
    fallback), where fallback marks a block with |u| = 0 or |theta| = 0,
    which the displacement law does not cover."""
    lamb_step, recorded = federation.lamb_step, []

    def spy(theta, psi, alpha, lam, phi, *, layout, tmp):
        before = theta.copy()
        t_norms, u_norms = norms = lamb_step(theta, psi, alpha, lam, phi, layout=layout, tmp=tmp)
        for row, row_before, t_row, u_row in zip(theta, before, t_norms.T, u_norms.T):
            disp = block_norms(BlockVector(layout, row - row_before))
            for d, t_norm, u_norm in zip(disp.tolist(), t_row.tolist(), u_row.tolist()):
                recorded.append((d, alpha * phi(t_norm), u_norm == 0.0 or t_norm == 0.0))
        return norms

    monkeypatch.setattr(federation, "lamb_step", spy)
    return recorded


@pytest.fixture
def uploaded_params(monkeypatch):
    """Wraps federation.local_round. The list it returns gets each client's
    uploaded model, in the order the lockstep groups ran."""
    local_round, uploads = federation.local_round, []

    def spy(group, theta_bar, *args):
        rows = local_round(group, theta_bar, *args)
        uploads.extend(BlockVector(theta_bar.layout, row) for row in rows["params"])
        return rows

    monkeypatch.setattr(federation, "local_round", spy)
    return uploads
