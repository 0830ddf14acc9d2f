"""Per-context gradient mode: ``no_grad()`` / ``enable_grad()`` (torch-style).

The autograd engine records a tape — parent links plus backward closures —
on every op whose inputs require gradients. Inference never calls
``backward()``, so that tape is pure overhead: it retains every
intermediate array for the lifetime of the output and pays a closure
allocation per op. Entering :func:`no_grad` turns the tape off for the
current context: ops compute plain numpy forwards, record no parents and
no closures, and never propagate ``requires_grad``. The GAT layer
additionally switches to a faster grad-free kernel under ``no_grad`` (see
:class:`repro.nn.layers.GATConv`) whose results are bitwise identical to
the recording path.

Both managers nest arbitrarily and restore the previous mode on exit,
including on exceptions; they also work as decorators::

    with no_grad():
        scores = model.score_graph(graph)      # tape-free

    @enable_grad()
    def refit(graph):                          # trains even if the caller
        return UMGAD(cfg).fit(graph)           # sits inside no_grad()

The mode is a :class:`contextvars.ContextVar`, so each thread has its own:
one thread leaving ``no_grad()`` cannot switch the tape back on inside
another thread's scoring pass, and a fit under ``enable_grad()`` in one
thread cannot be turned off by a pass in another. A new thread starts
with the tape on; code run through ``contextvars.copy_context()`` (the
scoring pass's structure lane) inherits its caller's mode.
"""

from __future__ import annotations

import contextvars
import functools

#: the flag, read directly by the op hot path (``ops._make``)
_enabled: "contextvars.ContextVar[bool]" = contextvars.ContextVar(
    "repro_grad_enabled", default=True)


def is_grad_enabled() -> bool:
    """True when ops currently record the autodiff tape."""
    return _enabled.get()


def set_grad_enabled(mode: bool) -> bool:
    """Set the current context's grad mode; returns the previous mode."""
    previous = _enabled.get()
    _enabled.set(bool(mode))
    return previous


class _GradMode:
    """Re-entrant context manager / decorator pinning the grad mode."""

    def __init__(self, mode: bool):
        self.mode = bool(mode)
        self._previous: list = []

    def __enter__(self) -> "_GradMode":
        self._previous.append(set_grad_enabled(self.mode))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_grad_enabled(self._previous.pop())
        return False

    def __call__(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with _GradMode(self.mode):
                return fn(*args, **kwargs)

        return wrapped

    def __repr__(self) -> str:
        return f"{'enable_grad' if self.mode else 'no_grad'}()"


def no_grad() -> _GradMode:
    """Context manager / decorator disabling tape recording."""
    return _GradMode(False)


def enable_grad() -> _GradMode:
    """Context manager / decorator (re-)enabling tape recording.

    Primarily used to train inside an ambient :func:`no_grad` region —
    e.g. a drift-triggered refit running inside a scoring loop.
    """
    return _GradMode(True)
