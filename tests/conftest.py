"""Shared fixtures: tiny frozen models built from residual and separable blocks.

``block_models`` covers every block handler of the plan compiler:
ResNet-18 (identity and downsample ``BasicBlock`` shortcuts), ResNet-50
(``Bottleneck``) and MobileNet (``SeparableBlock``), each approximated
with a rank-1 multiplier (``mul8u_1DMU``, matmul lowering) and a gather
multiplier (``mul8u_2NDH``).
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.tensor import no_grad
from repro.data import DataLoader, SyntheticImageDataset
from repro.models import mobilenet_small, resnet18, resnet50
from repro.multipliers import get_multiplier
from repro.retrain.convert import approximate_model, calibrate, freeze

BLOCK_ARCHS = {
    "resnet18": lambda: resnet18(num_classes=4, width_mult=0.0625),
    "resnet50": lambda: resnet50(num_classes=4, width_mult=0.0625),
    "mobilenet_small": lambda: mobilenet_small(num_classes=4, width_mult=0.125),
}
BLOCK_MULTS = ("mul8u_1DMU", "mul8u_2NDH")
BLOCK_IMAGE = 8


def frozen_block_model(arch: str, mult: str):
    """Build, approximate, calibrate and freeze one tiny block model."""
    model = BLOCK_ARCHS[arch]()
    # One train-mode pass gives every BatchNorm non-trivial running stats,
    # so the folded requant constants are not the identity affine.
    with no_grad():
        model(Tensor(np.random.default_rng(90).standard_normal(
            (16, 3, BLOCK_IMAGE, BLOCK_IMAGE)
        )))
    model = approximate_model(
        model, get_multiplier(mult), gradient_method="none"
    )
    ds = SyntheticImageDataset(32, 4, BLOCK_IMAGE, seed=11, split="train")
    calibrate(model, DataLoader(ds, batch_size=16), batches=1)
    freeze(model)
    model.eval()
    return model


@pytest.fixture(scope="session")
def block_models():
    """Frozen block models keyed ``(arch, multiplier)``."""
    return {
        (arch, mult): frozen_block_model(arch, mult)
        for arch in BLOCK_ARCHS
        for mult in BLOCK_MULTS
    }


@pytest.fixture(scope="session")
def block_batch():
    return np.random.default_rng(3).standard_normal(
        (3, 3, BLOCK_IMAGE, BLOCK_IMAGE)
    )
