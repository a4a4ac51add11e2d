"""Functional NN operations (conv, pooling, normalization, softmax).

Convolution uses im2col + matmul; the same im2col plumbing is reused by the
approximate layers, which replace the matmul with LUT lookups.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.autograd.tensor import Tensor
from repro.errors import ReproError


# ----------------------------------------------------------------------
# im2col / col2im (raw ndarray level)
# ----------------------------------------------------------------------
def conv_output_size(h: int, w: int, kh: int, kw: int, stride: int, pad: int) -> tuple[int, int]:
    """Spatial output size of a convolution."""
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ReproError(
            f"conv output empty for input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {stride}, pad {pad}"
        )
    return oh, ow


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int, pad_value=0
) -> np.ndarray:
    """Unfold patches: ``(N, C, H, W) -> (N, C*kh*kw, OH*OW)``.

    ``pad_value`` fills the border (default 0, the float convention).  The
    integer serving plan passes the activation zero point instead: a
    quantized zero *is* the zero point (``Q(0) = Z``), so padding the
    uint8 tensor with ``Z`` is bit-identical to padding the float tensor
    with 0 and quantizing afterwards.
    """
    n, c, h, w = x.shape
    oh, ow = conv_output_size(h, w, kh, kw, stride, pad)
    if pad:
        x = np.pad(
            x,
            ((0, 0), (0, 0), (pad, pad), (pad, pad)),
            constant_values=pad_value,
        )
    sn, sc, sh, sw = x.strides
    patches = as_strided(
        x,
        shape=(n, c, kh, kw, oh, ow),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    return patches.reshape(n, c * kh * kw, oh * ow).copy()


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold patch gradients back: inverse (adjoint) of :func:`im2col`."""
    n, c, h, w = x_shape
    oh, ow = conv_output_size(h, w, kh, kw, stride, pad)
    hp, wp = h + 2 * pad, w + 2 * pad
    out = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            out[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j]
    if pad:
        out = out[:, :, pad:-pad, pad:-pad]
    return out


# ----------------------------------------------------------------------
# Differentiable ops
# ----------------------------------------------------------------------
def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None,
    stride: int = 1,
    pad: int = 0,
) -> Tensor:
    """2-D convolution, NCHW layout, float matmul inner product."""
    n, c, h, w = x.shape
    oc, ic, kh, kw = weight.shape
    if ic != c:
        raise ReproError(f"conv2d channel mismatch: input {c}, weight {ic}")
    oh, ow = conv_output_size(h, w, kh, kw, stride, pad)

    cols = im2col(x.data, kh, kw, stride, pad)  # (N, K, L)
    wmat = weight.data.reshape(oc, -1)  # (OC, K)
    out = np.matmul(wmat, cols)  # (N, OC, L)
    if bias is not None:
        out = out + bias.data.reshape(1, oc, 1)
    out = out.reshape(n, oc, oh, ow)

    def backward(g):
        g2 = g.reshape(n, oc, oh * ow)
        gw = np.einsum("nol,nkl->ok", g2, cols).reshape(weight.shape)
        gcols = np.matmul(wmat.T, g2)  # (N, K, L)
        gx = col2im(gcols, x.shape, kh, kw, stride, pad)
        gb = g2.sum(axis=(0, 2)) if bias is not None else None
        return (gx, gw, gb) if bias is not None else (gx, gw)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor.make(out, parents, backward)


def depthwise_conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None,
    stride: int = 1,
    pad: int = 0,
) -> Tensor:
    """Depthwise 2-D convolution: one ``kh x kw`` filter per channel.

    ``weight`` has shape ``(C, 1, kh, kw)`` (torch's grouped layout with
    groups == channels).
    """
    n, c, h, w = x.shape
    wc, one, kh, kw = weight.shape
    if wc != c or one != 1:
        raise ReproError(
            f"depthwise weight {weight.shape} incompatible with input {x.shape}"
        )
    oh, ow = conv_output_size(h, w, kh, kw, stride, pad)
    cols = im2col(x.data, kh, kw, stride, pad)  # (N, C*kh*kw, L)
    cols = cols.reshape(n, c, kh * kw, oh * ow)
    wmat = weight.data.reshape(c, kh * kw)
    out = np.einsum("cj,ncjl->ncl", wmat, cols)
    if bias is not None:
        out = out + bias.data.reshape(1, c, 1)
    out = out.reshape(n, c, oh, ow)

    def backward(g):
        g2 = g.reshape(n, c, oh * ow)
        gw = np.einsum("ncl,ncjl->cj", g2, cols).reshape(weight.shape)
        gcols = np.einsum("cj,ncl->ncjl", wmat, g2).reshape(
            n, c * kh * kw, oh * ow
        )
        gx = col2im(gcols, x.shape, kh, kw, stride, pad)
        gb = g2.sum(axis=(0, 2)) if bias is not None else None
        return (gx, gw, gb) if bias is not None else (gx, gw)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor.make(out, parents, backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` for ``x`` of shape (N, in)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def max_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) square windows."""
    stride = stride or kernel
    n, c, h, w = x.shape
    oh, ow = conv_output_size(h, w, kernel, kernel, stride, 0)
    sn, sc, sh, sw = x.data.strides
    patches = as_strided(
        x.data,
        shape=(n, c, oh, ow, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    ).reshape(n, c, oh, ow, kernel * kernel)
    arg = patches.argmax(axis=-1)
    out = np.take_along_axis(patches, arg[..., None], axis=-1)[..., 0]

    def backward(g):
        gx = np.zeros_like(x.data)
        ky, kx_ = np.divmod(arg, kernel)
        oy = np.arange(oh)[None, None, :, None] * stride
        ox = np.arange(ow)[None, None, None, :] * stride
        rows = (oy + ky).reshape(-1)
        cols_ = (ox + kx_).reshape(-1)
        ni = np.repeat(np.arange(n), c * oh * ow)
        ci = np.tile(np.repeat(np.arange(c), oh * ow), n)
        np.add.at(gx, (ni, ci, rows, cols_), g.reshape(-1))
        return (gx,)

    return Tensor.make(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Average pooling over square windows."""
    stride = stride or kernel
    n, c, h, w = x.shape
    oh, ow = conv_output_size(h, w, kernel, kernel, stride, 0)
    sn, sc, sh, sw = x.data.strides
    patches = as_strided(
        x.data,
        shape=(n, c, oh, ow, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    out = patches.mean(axis=(-1, -2))

    def backward(g):
        gx = np.zeros_like(x.data)
        share = g / (kernel * kernel)
        for i in range(kernel):
            for j in range(kernel):
                gx[:, :, i : i + oh * stride : stride, j : j + ow * stride : stride] += share
        return (gx,)

    return Tensor.make(out, (x,), backward)


def gap2d(x: np.ndarray) -> np.ndarray:
    """Global average pool on a raw array: ``(N, C, H, W) -> (N, C)``.

    ``Tensor.mean`` lowers to ``sum * (1.0 / count)``; dividing by the
    count instead (``np.mean``) rounds differently for some value/HW
    combinations, so the compiled serving plan and the autograd graph must
    share this exact expression to stay bit-identical (pinned by a
    regression test with a crafted HW).
    """
    return x.sum(axis=(2, 3)) * (1.0 / float(x.shape[2] * x.shape[3]))


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over the spatial dimensions: ``(N, C, H, W) -> (N, C)``.

    ``Tensor.mean`` computes ``sum * (1.0 / count)`` -- the same
    expression as :func:`gap2d`, which the serving plan uses; keep the
    two in lockstep.
    """
    return x.mean(axis=(2, 3))


def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over (N, H, W) per channel.

    Running statistics are updated in place during training.
    """
    if training:
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        running_mean *= 1 - momentum
        running_mean += momentum * mean
        running_var *= 1 - momentum
        running_var += momentum * var
    else:
        mean, var = running_mean, running_var

    inv_std = 1.0 / np.sqrt(var + eps)
    m = mean.reshape(1, -1, 1, 1)
    s = inv_std.reshape(1, -1, 1, 1)
    xhat = (x.data - m) * s
    out = xhat * gamma.data.reshape(1, -1, 1, 1) + beta.data.reshape(1, -1, 1, 1)

    def backward(g):
        gshape = gamma.data.shape
        ggamma = (g * xhat).sum(axis=(0, 2, 3)).reshape(gshape)
        gbeta = g.sum(axis=(0, 2, 3)).reshape(gshape)
        gxhat = g * gamma.data.reshape(1, -1, 1, 1)
        if training:
            term1 = gxhat
            term2 = gxhat.mean(axis=(0, 2, 3), keepdims=True)
            term3 = xhat * (gxhat * xhat).mean(axis=(0, 2, 3), keepdims=True)
            gx = (term1 - term2 - term3) * s
        else:
            gx = gxhat * s
        return (gx, ggamma, gbeta)

    return Tensor.make(out, (x, gamma, beta), backward)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity in eval mode."""
    if not training or p <= 0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep) / keep
    return Tensor.make(x.data * mask, (x,), lambda g: (g * mask,))


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax."""
    shift = x.data - x.data.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shift).sum(axis=axis, keepdims=True))
    out = shift - logsumexp
    softmax = np.exp(out)

    def backward(g):
        return (g - softmax * g.sum(axis=axis, keepdims=True),)

    return Tensor.make(out, (x,), backward)
