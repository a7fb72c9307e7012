"""Loss functions.

Binary cross-entropy on logits plus the focal loss that RetinaNet introduced
(and which the paper highlights as RetinaNet's answer to the small-object
class-imbalance problem).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import Tensor, as_tensor


def binary_cross_entropy_with_logits(
    logits: Tensor,
    target: Tensor | np.ndarray,
    weight: Optional[np.ndarray] = None,
    reduction: str = "mean",
) -> Tensor:
    """Numerically stable BCE on logits.

    Uses the identity ``bce = max(x, 0) - x*t + log(1 + exp(-|x|))``.
    """
    target = as_tensor(target)
    relu_part = F.relu(logits)
    abs_part = logits.abs()
    loss = relu_part - logits * target + ((-abs_part).exp() + 1.0).log()
    if weight is not None:
        loss = loss * Tensor(np.asarray(weight, dtype=np.float32))
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    return loss


def focal_loss(
    logits: Tensor,
    target: Tensor | np.ndarray,
    alpha: float = 0.25,
    gamma: float = 2.0,
    reduction: str = "sum",
) -> Tensor:
    """Sigmoid focal loss (Lin et al., the RetinaNet training loss).

    ``target`` is a {0,1} tensor of the same shape as ``logits``.  The default
    reduction is ``sum`` because RetinaNet normalises by the number of positive
    anchors externally.
    """
    target = as_tensor(target)
    probs = F.sigmoid(logits)
    ce = binary_cross_entropy_with_logits(logits, target, reduction="none")
    p_t = probs * target + (1.0 - probs) * (1.0 - target)
    alpha_t = alpha * target + (1.0 - alpha) * (1.0 - target)
    loss = alpha_t * ((1.0 - p_t) ** gamma) * ce
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    return loss
