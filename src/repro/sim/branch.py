"""Branch prediction: direction predictors, BTB and return-address stack.

Direction predictors follow the classic designs the paper's sampler
varies: static (backward-taken/forward-not-taken), bimodal 2-bit counters,
gshare (global history XOR pc) and a tournament chooser between the two.
Indirect branches are predicted through a direct-mapped BTB; returns through
a bounded return-address stack (``call`` pushes, ``ret`` pops).

Each direction predictor's ``predict_update`` returns the prediction made
before the outcome and trains on the outcome in one call; ``update`` is
the same call without the answer.
"""

from __future__ import annotations

from repro.uarch.config import BranchPredictorConfig, PredictorKind

_WEAKLY_TAKEN = 2  # 2-bit counter init: 0,1 predict not-taken; 2,3 taken


class StaticPredictor:
    """Backward taken / forward not-taken; no state."""

    __slots__ = ()

    def predict(self, pc: int, target: int) -> bool:
        return target <= pc

    def predict_update(self, pc: int, target: int, taken: bool) -> bool:
        return target <= pc

    def update(self, pc: int, target: int, taken: bool) -> None:
        pass


class BimodalPredictor:
    """PC-indexed table of 2-bit saturating counters."""

    __slots__ = ("mask", "table")

    def __init__(self, table_bits: int):
        size = 1 << table_bits
        self.mask = size - 1
        self.table = [_WEAKLY_TAKEN] * size

    def predict(self, pc: int, target: int) -> bool:
        return self.table[(pc >> 2) & self.mask] >= 2

    def predict_update(self, pc: int, target: int, taken: bool) -> bool:
        table = self.table
        idx = (pc >> 2) & self.mask
        ctr = table[idx]
        if taken:
            if ctr < 3:
                table[idx] = ctr + 1
        elif ctr > 0:
            table[idx] = ctr - 1
        return ctr >= 2

    def update(self, pc: int, target: int, taken: bool) -> None:
        self.predict_update(pc, target, taken)


class GSharePredictor:
    """Global-history XOR pc indexed 2-bit counters."""

    __slots__ = ("mask", "table", "history", "hist_mask")

    def __init__(self, table_bits: int, history_bits: int):
        size = 1 << table_bits
        self.mask = size - 1
        self.table = [_WEAKLY_TAKEN] * size
        self.history = 0
        self.hist_mask = (1 << history_bits) - 1 if history_bits else 0

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self.history) & self.mask

    def predict(self, pc: int, target: int) -> bool:
        return self.table[self._index(pc)] >= 2

    def predict_update(self, pc: int, target: int, taken: bool) -> bool:
        table = self.table
        history = self.history
        idx = ((pc >> 2) ^ history) & self.mask
        ctr = table[idx]
        if taken:
            if ctr < 3:
                table[idx] = ctr + 1
        elif ctr > 0:
            table[idx] = ctr - 1
        self.history = ((history << 1) | int(taken)) & self.hist_mask
        return ctr >= 2

    def update(self, pc: int, target: int, taken: bool) -> None:
        self.predict_update(pc, target, taken)


class TournamentPredictor:
    """Bimodal vs gshare with a pc-indexed 2-bit chooser."""

    __slots__ = ("bimodal", "gshare", "chooser", "mask")

    def __init__(self, table_bits: int, history_bits: int):
        self.bimodal = BimodalPredictor(table_bits)
        self.gshare = GSharePredictor(table_bits, history_bits)
        size = 1 << table_bits
        self.mask = size - 1
        self.chooser = [_WEAKLY_TAKEN] * size  # >=2 prefers gshare

    def predict(self, pc: int, target: int) -> bool:
        if self.chooser[(pc >> 2) & self.mask] >= 2:
            return self.gshare.predict(pc, target)
        return self.bimodal.predict(pc, target)

    def predict_update(self, pc: int, target: int, taken: bool) -> bool:
        b_pred = self.bimodal.predict_update(pc, target, taken)
        g_pred = self.gshare.predict_update(pc, target, taken)
        chooser = self.chooser
        idx = (pc >> 2) & self.mask
        ctr = chooser[idx]
        b_correct = b_pred == taken
        g_correct = g_pred == taken
        if g_correct and not b_correct and ctr < 3:
            chooser[idx] = ctr + 1
        elif b_correct and not g_correct and ctr > 0:
            chooser[idx] = ctr - 1
        return g_pred if ctr >= 2 else b_pred

    def update(self, pc: int, target: int, taken: bool) -> None:
        self.predict_update(pc, target, taken)


def make_direction_predictor(config: BranchPredictorConfig):
    """Instantiate the configured direction predictor."""
    if config.kind is PredictorKind.STATIC:
        return StaticPredictor()
    if config.kind is PredictorKind.BIMODAL:
        return BimodalPredictor(config.table_bits)
    if config.kind is PredictorKind.GSHARE:
        return GSharePredictor(config.table_bits, config.history_bits)
    if config.kind is PredictorKind.TOURNAMENT:
        return TournamentPredictor(config.table_bits, config.history_bits)
    raise ValueError(f"unknown predictor kind {config.kind}")


class BranchUnit:
    """Full front-end branch machinery: direction + BTB + RAS.

    ``resolve_*`` methods return ``True`` when the branch *mispredicts*
    (forcing a fetch redirect) and update all predictor state in program
    order, which is the standard trace-driven approximation.
    """

    __slots__ = ("direction", "btb_mask", "btb_tags", "btb_targets", "ras",
                 "ras_depth", "mispredicts", "branches")

    def __init__(self, config: BranchPredictorConfig):
        self.direction = make_direction_predictor(config)
        size = 1 << config.btb_bits
        self.btb_mask = size - 1
        self.btb_tags = [-1] * size
        self.btb_targets = [0] * size
        self.ras: list[int] = []
        self.ras_depth = config.ras_entries
        self.mispredicts = 0
        self.branches = 0

    # -- BTB ------------------------------------------------------------
    def _btb_lookup(self, pc: int) -> int | None:
        idx = (pc >> 2) & self.btb_mask
        if self.btb_tags[idx] == pc:
            return self.btb_targets[idx]
        return None

    def _btb_update(self, pc: int, target: int) -> None:
        idx = (pc >> 2) & self.btb_mask
        self.btb_tags[idx] = pc
        self.btb_targets[idx] = target

    # -- resolution -----------------------------------------------------
    def resolve_conditional(self, pc: int, target: int, taken: bool) -> bool:
        self.branches += 1
        predicted = self.direction.predict_update(pc, target, taken)
        if taken:
            self._btb_update(pc, target)
        if predicted != taken:
            self.mispredicts += 1
            return True
        return False

    def resolve_direct_jump(self, pc: int, target: int) -> bool:
        """Unconditional direct jumps are known at decode: never redirect."""
        self.branches += 1
        return False

    def resolve_call(self, pc: int, target: int) -> bool:
        self.branches += 1
        if self.ras_depth:
            if len(self.ras) >= self.ras_depth:
                self.ras.pop(0)
            self.ras.append(pc + 4)
        return False

    def resolve_return(self, pc: int, target: int) -> bool:
        self.branches += 1
        predicted = self.ras.pop() if self.ras else None
        if predicted != target:
            self.mispredicts += 1
            return True
        return False

    def resolve_indirect(self, pc: int, target: int) -> bool:
        self.branches += 1
        predicted = self._btb_lookup(pc)
        self._btb_update(pc, target)
        if predicted != target:
            self.mispredicts += 1
            return True
        return False
