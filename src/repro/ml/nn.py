"""A small dense neural network with Adam, in plain numpy.

This is the DNN function approximator of the paper's RL dispatcher (the
paper points to Pensieve [24] for the technique).  It supports exactly what
a DQN needs: forward passes, mean-squared / Huber loss on *selected output
units* (Q-values of taken actions), backprop, and Adam updates.

Parameters, gradients and Adam moments each live in one flat float64
buffer, laid out layer by layer as ``w0, b0, w1, b1, ...`` (weights in
row-major order).  The per-layer arrays are views into those buffers, so
the optimizer updates every tensor with one set of elementwise calls
instead of one per tensor; elementwise arithmetic does not depend on how
an array is split, so the update is bit-identical to the per-tensor form.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np


@dataclass
class AdamState:
    """Adam accumulators: first and second moments and the step count.

    An :class:`MLP` keeps one for all its parameters, with ``m`` and ``v``
    laid out like its flat parameter buffer.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def like(cls, w: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(w), np.zeros_like(w))


@dataclass
class _Layer:
    """One dense layer.  Every array is a view into the owning
    :class:`MLP`'s flat buffers, so writing into one writes the buffer."""

    w: np.ndarray
    b: np.ndarray
    grad_w: np.ndarray
    grad_b: np.ndarray
    m_w: np.ndarray
    m_b: np.ndarray
    v_w: np.ndarray
    v_b: np.ndarray


class MLP:
    """Fully-connected ReLU network with a linear output layer."""

    def __init__(
        self,
        layer_sizes: list[int] | tuple[int, ...],
        learning_rate: float = 1e-3,
        huber_delta: float | None = 1.0,
        seed: int = 0,
    ) -> None:
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if any(s <= 0 for s in layer_sizes):
            raise ValueError("layer sizes must be positive")
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.learning_rate = float(learning_rate)
        self.huber_delta = huber_delta
        #: Opt-in gradient diagnostics for the training sentinel.  Off by
        #: default so the hot path pays nothing; enabling it only *reads*
        #: gradients (never alters the update), so the weight trajectory
        #: is bit-identical either way.
        self.grad_stats_enabled = False
        #: Largest |gradient| component seen in the most recent backward
        #: pass (0.0 until :attr:`grad_stats_enabled` is set).
        self.last_grad_max = 0.0
        size = sum(
            (fan_in + 1) * fan_out
            for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:])
        )
        self.params = np.zeros(size)
        self.grads = np.zeros(size)
        self.adam = AdamState.like(self.params)
        self._scratch = (np.zeros(size), np.zeros(size))
        self._bind_views()
        rng = np.random.default_rng(seed)
        for layer, fan_in in zip(self.layers, self.layer_sizes):
            # He initialization, appropriate for ReLU hidden units.
            layer.w[...] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=layer.w.shape)

    def _bind_views(self) -> None:
        """(Re)build the per-layer views into the flat buffers."""
        self.layers: list[_Layer] = []
        offset = 0
        for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            n_w = fan_in * fan_out
            w_sl = slice(offset, offset + n_w)
            b_sl = slice(offset + n_w, offset + n_w + fan_out)
            offset = b_sl.stop
            shape = (fan_in, fan_out)
            self.layers.append(
                _Layer(
                    w=self.params[w_sl].reshape(shape),
                    b=self.params[b_sl],
                    grad_w=self.grads[w_sl].reshape(shape),
                    grad_b=self.grads[b_sl],
                    m_w=self.adam.m[w_sl].reshape(shape),
                    m_b=self.adam.m[b_sl],
                    v_w=self.adam.v[w_sl].reshape(shape),
                    v_b=self.adam.v[b_sl],
                )
            )

    def __getstate__(self) -> dict:
        # Copying or pickling would turn the views into independent
        # arrays; rebuild them from the buffers instead.
        state = self.__dict__.copy()
        del state["layers"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_views()

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    # -- forward -------------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batch forward pass: (N, in) -> (N, out)."""
        return self.forward_cached(np.asarray(x, dtype=float))[-1]

    def predict_one(self, x: np.ndarray) -> np.ndarray:
        """Single-sample forward pass: (in,) -> (out,)."""
        return self.forward(np.asarray(x, dtype=float)[None, :])[0]

    def forward_cached(self, x: np.ndarray) -> list[np.ndarray]:
        """Batch forward pass keeping every layer's activations, input
        first and output last, for :meth:`train_step_cached`.

        ReLU is applied in place: ``relu(z) > 0`` exactly where ``z > 0``
        (NaN included, which fails both), so the backward pass takes its
        masks from the activations and the pre-activations need no copy.
        """
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"expected input of shape (N, {self.input_dim})")
        activations = [x]
        a = x
        last = self.layers[-1]
        for layer in self.layers:
            a = a @ layer.w
            a += layer.b
            if layer is not last:
                np.maximum(a, 0.0, out=a)
            activations.append(a)
        return activations

    # -- training --------------------------------------------------------------

    def train_step(
        self,
        x: np.ndarray,
        target: np.ndarray,
        output_mask: np.ndarray | None = None,
    ) -> float:
        """One gradient step toward ``target``; returns the loss.

        ``output_mask`` (N, out), when given, restricts the loss to selected
        output units — the DQN update touches only the Q-value of the action
        actually taken.
        """
        activations = self.forward_cached(np.asarray(x, dtype=float))
        return self.train_step_cached(
            activations, np.asarray(target, dtype=float), output_mask
        )

    def train_step_cached(
        self,
        activations: list[np.ndarray],
        target: np.ndarray,
        output_mask: np.ndarray | None = None,
    ) -> float:
        """:meth:`train_step` from a :meth:`forward_cached` pass the caller
        already ran with the current weights (the DQN builds its target
        from the same pass)."""
        out = activations[-1]
        if target.shape != out.shape:
            raise ValueError("target shape must match network output shape")
        diff = out - target
        if output_mask is not None:
            if output_mask.shape != out.shape:
                raise ValueError("output_mask shape must match network output shape")
            diff = diff * output_mask
            denom = max(1.0, float(output_mask.sum()))
        else:
            denom = float(diff.size)

        if self.huber_delta is None:
            loss = float((diff**2).sum() / (2.0 * denom))
            grad_out = diff / denom
        else:
            d = self.huber_delta
            absd = np.abs(diff)
            quad = np.minimum(absd, d)
            loss = float((0.5 * quad**2 + d * (absd - quad)).sum() / denom)
            grad_out = np.clip(diff, -d, d) / denom

        self._backward(activations, grad_out)
        self._adam_update()
        return loss

    def _backward(self, activations: list[np.ndarray], grad_out: np.ndarray) -> None:
        """Fill the flat gradient buffer (weights are not touched)."""
        grad = grad_out
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            if i != len(self.layers) - 1:
                grad = grad * (activations[i + 1] > 0.0)
            np.matmul(activations[i].T, grad, out=layer.grad_w)
            np.sum(grad, axis=0, out=layer.grad_b)
            if i:
                grad = grad @ layer.w.T
        if self.grad_stats_enabled:
            # gw/gb are the INPUT layer's gradients, through which the
            # chain rule funnels every downstream NaN or blow-up (``grad @
            # w.T`` propagates NaN, and the ReLU mask multiplies by 0.0
            # which keeps it) — so screening this one layer sees them all
            # at a fraction of the cost.
            # max(max, -min) == |·| peak without an np.abs temporary; a
            # NaN poisons the gw reductions, which come first, so the
            # builtin max returns it rather than masking it.
            gw, gb = self.layers[0].grad_w, self.layers[0].grad_b
            self.last_grad_max = max(
                float(gw.max()), -float(gw.min()),
                float(gb.max()), -float(gb.min()),
            )

    def _adam_update(
        self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8
    ) -> None:
        """One Adam step over the whole flat parameter buffer, computed
        in place in the order ``m = b1*m + (1-b1)*g``, ``v = b2*v +
        (1-b2)*g**2``, ``w -= lr*m_hat / (sqrt(v_hat) + eps)``."""
        state, g = self.adam, self.grads
        step, denom = self._scratch
        state.t += 1
        state.m *= beta1
        np.multiply(g, 1 - beta1, out=step)
        state.m += step
        state.v *= beta2
        np.multiply(g, g, out=step)
        step *= 1 - beta2
        state.v += step
        np.divide(state.m, 1 - beta1**state.t, out=step)
        step *= self.learning_rate
        np.divide(state.v, 1 - beta2**state.t, out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        self.params -= step

    # -- parameter transfer -------------------------------------------------------

    def get_weights(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(layer.w.copy(), layer.b.copy()) for layer in self.layers]

    def set_weights(self, weights: list[tuple[np.ndarray, np.ndarray]]) -> None:
        if len(weights) != len(self.layers):
            raise ValueError("weight list length mismatch")
        for layer, (w, b) in zip(self.layers, weights):
            if layer.w.shape != w.shape or layer.b.shape != b.shape:
                raise ValueError("weight shape mismatch")
            layer.w[...] = w
            layer.b[...] = b

    def clone(self) -> "MLP":
        """Structural copy with identical weights (fresh Adam state)."""
        other = MLP(self.layer_sizes, self.learning_rate, self.huber_delta)
        other.params[...] = self.params
        return other

    # -- checkpointing ------------------------------------------------------------

    def get_train_state(self) -> dict[str, np.ndarray]:
        """Weights *and* Adam accumulators as an npz-ready array dict.

        ``get_weights`` suffices to reproduce inference; resuming training
        bit-identically additionally needs every optimizer moment and step
        counter, since Adam's bias correction depends on ``t``.  The keys
        are per tensor (``w0``, ``adam_w0_m``, ``adam_w0_t``, ...), as they
        were before the buffers were flattened, so checkpoints written
        either way load either way.
        """
        arrays: dict[str, np.ndarray] = {}
        t = np.array([self.adam.t], dtype=np.int64)
        for i, layer in enumerate(self.layers):
            arrays[f"w{i}"] = layer.w.copy()
            arrays[f"b{i}"] = layer.b.copy()
            for tag, m, v in (("w", layer.m_w, layer.v_w), ("b", layer.m_b, layer.v_b)):
                arrays[f"adam_{tag}{i}_m"] = m.copy()
                arrays[f"adam_{tag}{i}_v"] = v.copy()
                arrays[f"adam_{tag}{i}_t"] = t.copy()
        return arrays

    def set_train_state(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Restore weights and Adam state from :meth:`get_train_state`."""
        steps: set[int] = set()
        for i, layer in enumerate(self.layers):
            try:
                w, b = arrays[f"w{i}"], arrays[f"b{i}"]
            except KeyError as exc:
                raise ValueError(f"train state is missing layer {i}") from exc
            if layer.w.shape != w.shape or layer.b.shape != b.shape:
                raise ValueError("train state layer shape mismatch")
            layer.w[...] = w
            layer.b[...] = b
            for tag, m_view, v_view in (
                ("w", layer.m_w, layer.v_w),
                ("b", layer.m_b, layer.v_b),
            ):
                m = arrays[f"adam_{tag}{i}_m"]
                v = arrays[f"adam_{tag}{i}_v"]
                if m.shape != m_view.shape or v.shape != v_view.shape:
                    raise ValueError("train state Adam shape mismatch")
                m_view[...] = m
                v_view[...] = v
                steps.add(int(arrays[f"adam_{tag}{i}_t"][0]))
        if len(steps) != 1:
            # Every training step updates every tensor, so their counts
            # can only differ in a state this class never wrote.
            raise ValueError(f"train state Adam step counts differ: {sorted(steps)}")
        self.adam.t = steps.pop()
