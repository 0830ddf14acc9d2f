"""Module/Parameter containers for the numpy NN substrate.

Mirrors the familiar torch.nn.Module contract at the scale this project
needs: recursive parameter discovery, train/eval mode, zero_grad, and a
flat state dict for checkpointing (ADA-GAD's two-stage training and the
tests use it).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..autograd.tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor; ``requires_grad`` defaults to True."""

    def __init__(self, data, name=None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter`, :class:`Module`, or
    :class:`ModuleList` instances as attributes; ``parameters()`` walks the
    attribute tree to find them.
    """

    def __init__(self):
        self.training = True

    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for attr, value in vars(self).items():
            if attr == "training":
                continue
            path = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                yield path, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=path + ".")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{path}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{path}.{i}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return int(sum(p.size for p in self.parameters()))

    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self._child_modules():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def _child_modules(self) -> Iterator["Module"]:
        for attr, value in vars(self).items():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy all parameter arrays into a flat name → array dict."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load arrays produced by :meth:`state_dict` (strict matching)."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            if param.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: {param.data.shape} vs "
                    f"{state[name].shape}"
                )
            param.data = state[name].copy()

    def save_state(self, path) -> None:
        """Write :meth:`state_dict` to a compressed ``.npz`` archive."""
        np.savez_compressed(path, **self.state_dict())

    def load_state(self, path) -> None:
        """Load an archive written by :meth:`save_state` (strict)."""
        with np.load(path) as archive:
            self.load_state_dict({name: archive[name]
                                  for name in archive.files})

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class ModuleList(Module):
    """A list of sub-modules that registers its children for parameters()."""

    def __init__(self, modules=()):
        super().__init__()
        self._items: List[Module] = list(modules)

    def append(self, module: Module) -> None:
        self._items.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i: int) -> Module:
        return self._items[i]

    def named_parameters(self, prefix: str = ""):
        for i, item in enumerate(self._items):
            yield from item.named_parameters(prefix=f"{prefix}{i}.")

    def _child_modules(self):
        return iter(self._items)

    def forward(self, *args, **kwargs):  # pragma: no cover
        raise NotImplementedError("ModuleList is a container, not a layer")
