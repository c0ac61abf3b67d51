"""A tour of the tensor engine: build a graph, run backward, check it.

Everything the model trains with reduces to the handful of operations
shown here. Run from the repository root:

    python3 demos/autograd_basics.py
"""

import numpy as np

from trihead.autograd import (
    Tensor,
    backward,
    cross_entropy,
    grad_check,
    linear,
    matmul,
    reshape,
    softmax,
)

# ---------------------------------------------------------------------------
# 1. Tensors hold float32 numpy arrays plus an optional gradient slot.

x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
w = Tensor([[0.5], [-0.5]], requires_grad=True)
print("x:", x.data.tolist(), x.data.dtype)

# 2. Operations record how they were computed. A biased projection
#    (x @ w + b, one linear node), then a softmax:
b = Tensor([0.1], requires_grad=True)
scores = linear(x, w, b)
probs = softmax(scores, axis=0)
print("scores:", scores.data.ravel().tolist())
print("probs: ", probs.data.ravel().tolist())

# 3. backward() walks the recorded graph from a scalar and fills .grad on
#    every leaf. Cross-entropy against class 0 gives us a scalar to pull on.
loss = cross_entropy(reshape(scores, (1, 2)), np.array([0]))
print("loss:  ", float(loss.data))
backward(loss)
print("dloss/dw:", w.grad.ravel().tolist())
print("dloss/db:", b.grad.ravel().tolist())

# 4. Gradients accumulate until cleared, so a second backward pass doubles
#    every leaf gradient. Optimizers here call zero_grad between steps.
before = w.grad.copy()
loss2 = cross_entropy(reshape(linear(x, w, b), (1, 2)), np.array([0]))
backward(loss2)
print("accumulated twice:", bool(np.allclose(w.grad, 2 * before)))

# 5. Never trust a hand-written backward pass: grad_check compares it with
#    central finite differences, coordinate by coordinate, in float64.
w64 = Tensor(w.data.astype(np.float64), dtype=np.float64, requires_grad=True)
x64 = Tensor(x.data.astype(np.float64), dtype=np.float64)


def f(probe):
    return cross_entropy(reshape(matmul(x64, probe), (1, 2)), np.array([0]))


report = grad_check(f, w64)
print(report)
