"""Platoon composition strings, leader election and connectivity matrices.

A platoon is a plain string over ``-APLG``, one letter per vehicle from the
head back: an optional independent head ``-`` (profile-driven, position 0
only) followed by controller letters, checked by :func:`parse_config`.  Every
follower elects as its communication leader the nearest vehicle ahead running
a different controller; if no such vehicle exists, the follower falls back to
an external reference (encoded as ``None``).

The information flow induced by the controllers is summarized in a binary
matrix: row i marks the vehicles whose state vehicle i needs.  The extended
variant adds a leading column for the external reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import UsageError

INDEPENDENT = "-"
CONTROLLER_LETTERS = "APLG"
ALPHABET = INDEPENDENT + CONTROLLER_LETTERS
MAX_PLATOON = 1000     # vehicles of one platoon; a run's record grows with it

#: Election result of a vehicle that tracks an external reference instead of
#: a platoon member.
EXTERNAL_REF = None


def check_platoon_size(n: int) -> None:
    """Raise :class:`UsageError` unless a platoon of ``n`` vehicles is 2 to
    :data:`MAX_PLATOON` long."""
    if not 2 <= n <= MAX_PLATOON:
        raise UsageError(f"a platoon holds 2 to {MAX_PLATOON} vehicles, got {n}")


def parse_config(text: str) -> str:
    """Return the composition string ``text``, such as ``-PLG``, once it is
    checked: 2 to :data:`MAX_PLATOON` vehicles, letters from ``-APLG``, ``-``
    only at the head.  Raises :class:`UsageError` naming the first fault."""
    check_platoon_size(len(text))
    for pos, letter in enumerate(text):
        if letter not in ALPHABET:
            raise UsageError(
                f"invalid controller letter {letter!r} at position {pos} in {text!r}"
            )
        if letter == INDEPENDENT and pos != 0:
            raise UsageError(
                f"independent head marker only allowed at position 0, found at {pos} in {text!r}"
            )
    return text


def elect_ego_leaders(cfg: str) -> dict[int, int | None]:
    """Leader election for every follower.

    Returns a map from follower index (1..N-1) to the index of the nearest
    preceding vehicle with a different controller, or :data:`EXTERNAL_REF`
    when all preceding vehicles run the same controller.
    """
    cfg = parse_config(cfg)
    # the vehicle ahead of the run of cfg[i]'s letter that ends at i, or -1
    ahead = {i: len(cfg[:i].rstrip(cfg[i])) - 1 for i in range(1, len(cfg))}
    return {i: EXTERNAL_REF if j < 0 else j for i, j in ahead.items()}


@dataclass(frozen=True, eq=False)
class ConnectivityMatrix:
    """Binary information-need matrix; optionally with an external-reference
    column prepended."""

    cells: np.ndarray
    has_external_ref: bool = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.cells.shape

    def to_lists(self) -> list[list[int]]:
        return self.cells.astype(int).tolist()

    def to_text(self) -> str:
        """Render as a grid; the external-reference column is separated by a bar."""
        lines = []
        for row in self.cells:
            items = [str(int(x)) for x in row]
            if self.has_external_ref:
                lines.append(items[0] + " | " + " ".join(items[1:]))
            else:
                lines.append(" ".join(items))
        return "\n".join(lines)


def connectivity_matrix(cfg: str) -> ConnectivityMatrix:
    """Square N x N matrix restricted to platoon members."""
    cfg = parse_config(cfg)
    leaders = elect_ego_leaders(cfg)
    cells = np.zeros((len(cfg), len(cfg)), dtype=np.int8)
    for i, letter in enumerate(cfg):
        cells[i, i] = 1
        if letter == INDEPENDENT:
            continue
        if i > 0:
            cells[i, i - 1] = 1
        if letter in ("P", "G") and leaders.get(i, EXTERNAL_REF) is not EXTERNAL_REF:
            cells[i, leaders[i]] = 1
        if letter == "G" and i + 1 < len(cfg):
            cells[i, i + 1] = 1
    return ConnectivityMatrix(cells, has_external_ref=False)


def extended_connectivity_matrix(
    cfg: str,
    head_externally_guided: bool = False,
) -> ConnectivityMatrix:
    """N x (N+1) matrix with a leading external-reference column.

    The external column is set for spring-damper vehicles whose election fell
    back to the external reference, which is when every vehicle ahead runs
    the spring-damper law too, and for the independent head when it is
    driven by an external speed profile.
    """
    cfg = parse_config(cfg)
    external = [letter == "G" and set(cfg[:i]) <= {"G"}
                or letter == INDEPENDENT and head_externally_guided
                for i, letter in enumerate(cfg)]
    cells = np.column_stack((np.array(external, dtype=np.int8),
                             connectivity_matrix(cfg).cells))
    return ConnectivityMatrix(cells, has_external_ref=True)
