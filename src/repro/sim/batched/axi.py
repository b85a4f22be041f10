"""SoA kernel for the AXI IC^RT baseline.

Compact per-client FIFOs ``(N, ports, fifo_capacity)`` (head at slot
0), a shared-bus pipeline ring per trial, and per-(trial, client)
token pools for the optional bandwidth regulation.  The scalar
engine's lazy token refill (``cycle >= _next_refill``) ticks every
cycle on the slow path, which is exactly the dense
``cycle % window == 0`` refill used here.
"""

from __future__ import annotations

import numpy as np

from repro.sim.batched.extract import BIG


class AxiKernel:
    def __init__(self, core, sims) -> None:
        self.core = core
        ic = sims[0].interconnect
        n = core.n
        ports = core.n_ports
        self.ports = ports
        self.f = ic.fifo_capacity
        self.lat = ic.PIPELINE_LATENCY
        self.window = ic._window
        self.fbuf = np.zeros((n, ports, self.f), dtype=np.int64)
        # empty key slots hold the BIG sentinel: arbitration and charges
        # then need no occupancy mask at all
        self.kbuf = np.full((n, ports, self.f), BIG, dtype=np.int64)
        self.f_len = np.zeros((n, ports), dtype=np.int64)
        self.occ = 0
        self.pcap = core.rmax + 1
        self.rid_ring = np.zeros((n, self.pcap), dtype=np.int64)
        self.key_ring = np.zeros((n, self.pcap), dtype=np.int64)
        self.exit_ring = np.zeros((n, self.pcap), dtype=np.int64)
        self.p_start = np.zeros(n, dtype=np.int64)
        self.p_len = np.zeros(n, dtype=np.int64)
        if self.window is not None:
            self.budgets = np.asarray(
                [sim.interconnect._budgets for sim in sims], dtype=np.int64
            )
            self.tokens = self.budgets.copy()
        else:
            self.budgets = self.tokens = None
        self._n_idx = np.arange(n)

    def begin_cycle(self, cycle: int, active: np.ndarray) -> None:
        pass

    def inject_space(self, cycle: int, out: np.ndarray) -> None:
        np.less(self.f_len[:, self.core.client_ids], self.f, out=out)

    def accept(self, cycle, trials, cols, rids, keys) -> None:
        ports = self.core.client_ids[cols]
        at = self.f_len[trials, ports]
        self.fbuf[trials, ports, at] = rids
        self.kbuf[trials, ports, at] = keys
        self.f_len[trials, ports] += 1
        self.occ += len(trials)

    def tick(self, cycle: int, active: np.ndarray) -> None:
        if self.window is not None and cycle % self.window == 0:
            np.copyto(self.tokens, self.budgets, where=active[:, None])
        # pipeline exit: one head per cycle, gated on controller space
        if self.p_len.any():
            exits = (
                (self.p_len > 0)
                & (self.exit_ring[self._n_idx, self.p_start] <= cycle)
                & self.core.provider_space()
                & active
            )
            tt = exits.nonzero()[0]
            if len(tt):
                at = self.p_start[tt]
                rids = self.rid_ring[tt, at]
                keys = self.key_ring[tt, at]
                self.p_start[tt] = (at + 1) % self.pcap
                self.p_len[tt] -= 1
                self.core.enqueue_provider(tt, rids, keys)
        if not self.occ:
            return
        heads = self.fbuf[..., 0]
        if self.window is not None:
            encoded = np.where(self.tokens > 0, self.kbuf[..., 0], BIG)
        else:
            encoded = self.kbuf[..., 0]
        best = encoded.argmin(axis=1)
        best_key = encoded[self._n_idx, best]
        tt = ((best_key < BIG) & active).nonzero()[0]
        if not len(tt):
            return
        port = best[tt]
        rids = heads[tt, port]
        self.fbuf[tt, port, : self.f - 1] = self.fbuf[tt, port, 1:]
        self.kbuf[tt, port, : self.f - 1] = self.kbuf[tt, port, 1:]
        self.kbuf[tt, port, self.f - 1] = BIG
        self.f_len[tt, port] -= 1
        self.occ -= len(tt)
        if self.window is not None:
            self.tokens[tt, port] -= 1
        pos = (self.p_start[tt] + self.p_len[tt]) % self.pcap
        self.rid_ring[tt, pos] = rids
        self.key_ring[tt, pos] = best_key[tt]
        self.exit_ring[tt, pos] = cycle + self.lat
        self.p_len[tt] += 1
        self._charge(tt, best_key[tt])

    def _charge(self, tt, winner_key) -> None:
        # eligibility is evaluated *after* the winner's token was spent
        keys = self.kbuf[tt]  # (K, ports, F); empty slots = BIG
        charge = keys < winner_key[:, None, None]
        if self.window is not None:
            charge &= (self.tokens[tt] > 0)[..., None]
        if charge.any():
            rows = tt[charge.nonzero()[0]]
            self.core.blocking[rows, self.fbuf[tt][charge]] += 1
