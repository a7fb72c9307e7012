"""Pruning-framework registry: the single source of truth for framework factories.

Every consumer (the CLI ``--framework`` choices, the deployment pipeline's
:class:`repro.pipeline.RunSpec`, the Figs. 4-7 comparison suite) resolves
frameworks through this registry.

A framework is registered with the :func:`register_framework` decorator::

    @register_framework("rtoss-3ep", label="R-TOSS-3EP", paper_suite=True)
    def _rtoss_3ep(seed=0, dense_layer_names=(), **config_overrides):
        return RTOSSPruner(RTOSSConfig(entries=3, seed=seed, ...))

and built by canonical name or paper label, case-insensitively, with keyword
overrides forwarded to the factory::

    pruner = build_framework("rtoss-3ep", seed=7)
    pruner = build_framework("R-TOSS-3EP")          # same entry

Factories declare the overrides they understand through their signature;
:func:`framework_accepts` lets generic callers (the RetinaNet experiments'
``dense_layer_names``) probe support before forwarding a keyword, and
:func:`build_seeded_framework` — what the CLI and the deployment pipeline
call — passes a run's seed only to the factories that take one.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import RTOSSConfig
from repro.core.rtoss import RTOSSPruner
from repro.pruning.channel_pruning import NetworkSlimmingPruner
from repro.pruning.filter_pruning import FilterPruner
from repro.pruning.magnitude import MagnitudePruner
from repro.pruning.neural_pruning import NeuralPruner
from repro.pruning.patdnn import PatDNNPruner

PrunerFactory = Callable[..., object]


@dataclass(frozen=True)
class FrameworkEntry:
    """One registered pruning framework at its default operating point."""

    name: str                    # canonical key, e.g. "rtoss-3ep"
    label: str                   # paper label, e.g. "R-TOSS-3EP"
    factory: PrunerFactory
    description: str = ""
    #: Part of the default Figs. 4-7 comparison suite.
    paper_suite: bool = False
    #: Position within the paper suite (matches the order of the figures).
    suite_order: int = 100

    def accepts(self, parameter: str) -> bool:
        """Whether :attr:`factory` understands the keyword ``parameter``."""
        signature = inspect.signature(self.factory)
        if parameter in signature.parameters:
            return True
        return any(p.kind is inspect.Parameter.VAR_KEYWORD
                   for p in signature.parameters.values())


_REGISTRY: Dict[str, FrameworkEntry] = {}


def register_framework(name: str, label: Optional[str] = None, description: str = "",
                       paper_suite: bool = False, suite_order: int = 100,
                       ) -> Callable[[PrunerFactory], PrunerFactory]:
    """Decorator registering a pruner factory under ``name`` (case-insensitive)."""
    key = name.lower()

    def decorator(factory: PrunerFactory) -> PrunerFactory:
        if key in _REGISTRY:
            raise ValueError(f"framework {name!r} is already registered")
        entry = FrameworkEntry(name=key, label=label or name, factory=factory,
                               description=description, paper_suite=paper_suite,
                               suite_order=suite_order)
        clash = _lookup(entry.label)
        if clash is not None and clash.name != key:
            raise ValueError(f"framework label {entry.label!r} is already used by "
                             f"{clash.name!r}")
        _REGISTRY[key] = entry
        return factory

    return decorator


def _lookup(name: str) -> Optional[FrameworkEntry]:
    key = name.lower()
    entry = _REGISTRY.get(key)
    if entry is not None:
        return entry
    for candidate in _REGISTRY.values():
        if candidate.label.lower() == key:
            return candidate
    return None


def framework_entry(name: str) -> FrameworkEntry:
    """Resolve a framework by canonical name or paper label (case-insensitive)."""
    entry = _lookup(name)
    if entry is None:
        raise KeyError(f"unknown pruning framework {name!r}; "
                       f"available: {available_frameworks()}")
    return entry


def build_framework(name: str, **overrides) -> object:
    """Instantiate a registered framework, forwarding ``overrides`` to its factory."""
    return framework_entry(name).factory(**overrides)


def framework_accepts(name: str, parameter: str) -> bool:
    """Whether the framework's factory understands the keyword ``parameter``."""
    return framework_entry(name).accepts(parameter)


def build_seeded_framework(name: str, seed: int,
                           overrides: Optional[Dict[str, object]] = None) -> object:
    """:func:`build_framework`, threading ``seed`` into a factory that takes one.

    A ``seed`` already in ``overrides`` wins; a factory without a seed
    parameter (the deterministic baselines) is built without it.
    """
    overrides = dict(overrides or {})
    if "seed" not in overrides and framework_accepts(name, "seed"):
        overrides["seed"] = seed
    return build_framework(name, **overrides)


def available_frameworks() -> List[str]:
    """Sorted canonical names of every registered framework."""
    return sorted(_REGISTRY)


def framework_entries() -> List[FrameworkEntry]:
    """All registered entries, sorted by canonical name."""
    return [_REGISTRY[name] for name in available_frameworks()]


def paper_suite_entries() -> List[FrameworkEntry]:
    """The Figs. 4-7 comparison frameworks in the paper's presentation order."""
    entries = [entry for entry in _REGISTRY.values() if entry.paper_suite]
    return sorted(entries, key=lambda entry: (entry.suite_order, entry.label))


def paper_suite(dense_layer_names: Tuple[str, ...] = ()) -> Dict[str, PrunerFactory]:
    """``{paper label: factory}`` for the default comparison suite.

    ``dense_layer_names`` is forwarded to the frameworks that support it (the
    R-TOSS variants; used by the RetinaNet experiments to reproduce the paper's
    eligible-weight fraction).
    """
    suite: Dict[str, PrunerFactory] = {}
    for entry in paper_suite_entries():
        overrides: Dict[str, object] = {}
        if dense_layer_names and entry.accepts("dense_layer_names"):
            overrides["dense_layer_names"] = tuple(dense_layer_names)
        suite[entry.label] = _bind(entry.factory, overrides)
    return suite


def _bind(factory: PrunerFactory, overrides: Dict[str, object]) -> PrunerFactory:
    if not overrides:
        return factory

    def bound(**extra):
        return factory(**{**overrides, **extra})

    return bound


# --------------------------------------------------------------------- built-ins
def _register_rtoss(entries: int, paper_suite_member: bool, order: int,
                    description: str) -> None:
    @register_framework(f"rtoss-{entries}ep", label=f"R-TOSS-{entries}EP",
                        description=description, paper_suite=paper_suite_member,
                        suite_order=order)
    def _factory(seed: int = 0, dense_layer_names: Tuple[str, ...] = (),
                 **config_overrides):
        return RTOSSPruner(RTOSSConfig(entries=entries, seed=seed,
                                       dense_layer_names=tuple(dense_layer_names),
                                       **config_overrides))


_register_rtoss(2, True, 70, "R-TOSS with 2-entry patterns (highest sparsity)")
_register_rtoss(3, True, 60, "R-TOSS with 3-entry patterns (best YOLOv5s accuracy)")
_register_rtoss(4, False, 110, "4-entry sensitivity variant (Table 3)")
_register_rtoss(5, False, 120, "5-entry sensitivity variant (Table 3)")


@register_framework("pd", label="PD", paper_suite=True, suite_order=10,
                    description="PATDNN: 4-entry patterns + connectivity pruning")
def _patdnn(entries: int = 4, connectivity_ratio: float = 0.30, seed: int = 0):
    return PatDNNPruner(entries=entries, connectivity_ratio=connectivity_ratio, seed=seed)


@register_framework("nms", label="NMS", paper_suite=True, suite_order=20,
                    description="Neural Magic SparseML-style magnitude pruning")
def _magnitude(sparsity: float = 0.60):
    return MagnitudePruner(sparsity=sparsity)


@register_framework("ns", label="NS", paper_suite=True, suite_order=30,
                    description="Network Slimming (BN-scale channel pruning)")
def _network_slimming(channel_ratio: float = 0.40):
    return NetworkSlimmingPruner(channel_ratio=channel_ratio)


@register_framework("pf", label="PF", paper_suite=True, suite_order=40,
                    description="Pruning Filters (L1-norm filter pruning)")
def _filter(ratio: float = 0.40):
    return FilterPruner(ratio=ratio)


@register_framework("np", label="NP", paper_suite=True, suite_order=50,
                    description="Neural Pruning (filter + weight sparsity)")
def _neural(filter_ratio: float = 0.25, weight_sparsity: float = 0.30):
    return NeuralPruner(filter_ratio=filter_ratio, weight_sparsity=weight_sparsity)
