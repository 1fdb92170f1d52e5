"""Declarative layer graphs and receptive-field arithmetic.

Architectures are described in a line-oriented text format, one layer per
line (``#`` starts a comment):

    input <name> channels=<c>
    conv <name> k=<k> s=<s> p=<p> c=<c> from <name>
    pool <name> k=<k> s=<s> [p=<p>] from <name>
    concat <name> from <n1>,<n2>,...
    resadd <name> from <n1>,<n2>[,...]

The graph must be acyclic with exactly one input layer. Receptive fields
follow the single-chain recursion RF' = RF + (k - 1) * jump with
jump' = jump * s, applied in topological order. Merge nodes union the
receptive fields arriving over their branches into ``rf_set`` and require
equal cumulative strides; the scalar receptive field of any layer is the
maximum of its ``rf_set``. Padding never changes the receptive field, only
the spatial dimensions, which follow floor((n + 2p - k) / s) + 1 per axis.

One pass does the analysis and builds one record per layer: :func:`analyze`
returns the per-layer facts and the findings (merge checks and non-positive
output dims), and raises :class:`ParseError` only for a layer whose numbers
(stride, receptive field, channels or output dims) pass the float range.
:func:`receptive_field` reads one layer from the same pass and raises
:class:`IncompatibleMergeError` where the receptive field is undefined;
:func:`validate_variant` returns the findings at a given input size.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from importlib import resources

from .errors import ConfigError, IncompatibleMergeError, ParseError

__all__ = [
    "LayerSpec",
    "NetGraph",
    "RFInfo",
    "Finding",
    "parse_arch",
    "builtin_arch",
    "builtin_arch_names",
    "analyze",
    "receptive_field",
    "validate_variant",
    "with_probe_window",
    "PROBE_NAME",
]

PROBE_NAME = "rpn_window"  # the layer ``with_probe_window`` appends
_FLOAT_MAX = int(sys.float_info.max)  # past it, a layer's numbers are an input error
_MERGE_KINDS = ("concat", "resadd")
# Integer keys of each layer kind, in the order they are checked:
# (key, LayerSpec field, minimum). A pool's p defaults to 0.
_KEYS = {
    "input": (("channels", "channels_out", 1),),
    "conv": (("k", "kernel", 1), ("s", "stride", 1), ("p", "padding", 0),
             ("c", "channels_out", 1)),
    "pool": (("k", "kernel", 1), ("s", "stride", 1), ("p", "padding", 0)),
    "concat": (),
    "resadd": (),
}


@dataclass(frozen=True)
class LayerSpec:
    """One node of the layer graph; its name is its key in ``NetGraph.layers``."""

    kind: str  # input | conv | pool | concat | resadd
    kernel: int | None = None
    stride: int | None = None
    padding: int | None = None
    channels_out: int | None = None
    inputs: tuple[str, ...] = ()


@dataclass(frozen=True)
class NetGraph:
    """Validated acyclic layer graph with a single input node, which is
    ``topo_order[0]``: every other layer has a source."""

    layers: dict[str, LayerSpec]
    topo_order: tuple[str, ...]

    def sinks(self) -> list[str]:
        consumed = {src for spec in self.layers.values() for src in spec.inputs}
        return [name for name in self.layers if name not in consumed]


@dataclass(frozen=True)
class RFInfo:
    """Receptive-field facts for one layer.

    ``rf_set`` holds the receptive fields reaching the layer via distinct
    branches; ``receptive_field`` is its maximum. ``spatial_dims`` is (w, h)
    when an input size was supplied, else None.
    """

    receptive_field: int
    cumulative_stride: int
    rf_set: frozenset[int]
    channels: int | None
    spatial_dims: tuple[int, int] | None


@dataclass(frozen=True)
class Finding:
    """Validation result for one merge node."""

    node: str
    ok: bool
    message: str
    rf_set: frozenset[int] = field(default_factory=frozenset)


def _parse_int(token: str, key: str, lineno: int, minimum: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: {key}={token!r} is not an integer") from None
    if value < minimum:
        raise ParseError(f"line {lineno}: {key} must be >= {minimum}, got {value}")
    return value


def _parse_kv(tokens: list[str], lineno: int) -> dict[str, str]:
    out: dict[str, str] = {}
    for tok in tokens:
        if "=" not in tok:
            raise ParseError(f"line {lineno}: expected key=value, got {tok!r}")
        key, _, value = tok.partition("=")
        if key in out:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def parse_arch(text: str) -> NetGraph:
    """Parse a layer-graph description.

    Raises :class:`ParseError` naming the offending line for unknown kinds,
    duplicate names, wrong input counts, dangling input references, cycles,
    or a missing or non-unique input layer.
    """
    layers: dict[str, LayerSpec] = {}
    lines: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind not in _KEYS:
            raise ParseError(f"line {lineno}: unknown layer kind {kind!r}")
        if len(tokens) < 2:
            raise ParseError(f"line {lineno}: missing layer name")
        name = tokens[1]
        if name in layers:
            raise ParseError(f"line {lineno}: duplicate layer name {name!r}")
        rest = tokens[2:]

        inputs: tuple[str, ...] = ()
        if kind != "input":
            if "from" not in rest:
                raise ParseError(f"line {lineno}: missing 'from' clause")
            at = rest.index("from")
            inputs = tuple(s for part in rest[at + 1 :] for s in part.split(",") if s)
            rest = rest[:at]
            if not inputs:
                raise ParseError(f"line {lineno}: 'from' names no layers")

        kv = _parse_kv(rest, lineno)
        if kind == "pool":
            kv.setdefault("p", "0")
        values = {}
        for key, attr, minimum in _KEYS[kind]:
            if key not in kv:
                raise ParseError(f"line {lineno}: {kind} layer requires {key}=")
            values[attr] = _parse_int(kv.pop(key), key, lineno, minimum)
        if kind in _MERGE_KINDS and len(inputs) < 2:
            raise ParseError(f"line {lineno}: {kind} needs at least 2 inputs")
        if len(inputs) != len(set(inputs)):
            raise ParseError(f"line {lineno}: repeated input name in 'from' clause")
        if kv:
            raise ParseError(f"line {lineno}: unexpected keys {sorted(kv)}")
        layers[name] = LayerSpec(kind=kind, inputs=inputs, **values)
        lines[name] = lineno

    if not layers:
        raise ParseError("empty architecture description")
    input_count = sum(spec.kind == "input" for spec in layers.values())
    if input_count != 1:
        raise ParseError(f"expected exactly one input layer, found {input_count}")

    for name, spec in layers.items():
        for src in spec.inputs:
            if src not in layers:
                raise ParseError(
                    f"line {lines[name]}: layer {name!r} references undefined layer {src!r}"
                )
        if spec.kind in ("conv", "pool") and len(spec.inputs) > 1:
            raise ParseError(f"line {lines[name]}: {spec.kind} takes exactly one input")

    sorter = TopologicalSorter({name: spec.inputs for name, spec in layers.items()})
    try:
        topo = tuple(sorter.static_order())
    except CycleError as exc:
        raise ParseError(f"cycle detected involving layers {sorted(set(exc.args[1]))}") from None
    return NetGraph(layers=layers, topo_order=topo)


def builtin_arch_names() -> list[str]:
    files = resources.files("scaledet").joinpath("archs")
    return sorted(p.name[: -len(".arch")] for p in files.iterdir() if p.name.endswith(".arch"))


def builtin_arch(name: str) -> str:
    """Text of a bundled architecture fixture (zf, zf_ml, zf_ms, ...)."""
    res = resources.files("scaledet").joinpath("archs").joinpath(f"{name}.arch")
    if not res.is_file():
        raise KeyError(f"no builtin architecture {name!r}; have {builtin_arch_names()}")
    return res.read_text(encoding="utf-8")


def _analyze(
    graph: NetGraph, input_size: tuple[int, int] | None
) -> tuple[dict[str, RFInfo], list[Finding], list[str]]:
    """The one pass behind :func:`analyze`, in topological order.

    Also returns, in order, the problems that leave a receptive field
    undefined: non-positive output dims, and merge branches whose strides
    or spatial dims differ. A resadd channel mismatch is only a finding.
    """
    infos: dict[str, RFInfo] = {}
    findings: list[Finding] = []
    errors: list[str] = []

    for name in graph.topo_order:
        spec = graph.layers[name]
        if spec.kind == "input":
            rf_set, stride, channels = frozenset({1}), 1, spec.channels_out
            dims = (int(input_size[0]), int(input_size[1])) if input_size else None
        elif spec.kind in ("conv", "pool"):
            src = infos[spec.inputs[0]]
            k, s, p = spec.kernel, spec.stride, spec.padding
            jump = src.cumulative_stride
            rf_set = frozenset(r + (k - 1) * jump for r in src.rf_set)
            stride = jump * s
            dims = None
            if src.spatial_dims is not None:
                dims = tuple((n + 2 * p - k) // s + 1 for n in src.spatial_dims)
                if dims[0] < 1 or dims[1] < 1:
                    msg = f"layer {name!r} output dims {dims} are not positive"
                    errors.append(msg)
                    findings.append(Finding(node=name, ok=False, message=msg))
                    dims = (max(dims[0], 1), max(dims[1], 1))
            channels = spec.channels_out if spec.kind == "conv" else src.channels
        else:
            # Merge node: union receptive fields, require consistent stride/dims.
            branches = [infos[src] for src in spec.inputs]
            problems: list[str] = []
            strides = [b.cumulative_stride for b in branches]
            if len(set(strides)) > 1:
                problems.append(f"merge {name!r}: branch strides differ ({strides})")
            # Every layer's dims derive from the input's, so all are None or all set.
            dim_set = {b.spatial_dims for b in branches}
            if len(dim_set) > 1:
                problems.append(f"merge {name!r}: branch spatial dims differ ({sorted(dim_set)})")
            dims = branches[0].spatial_dims
            errors.extend(problems)
            if spec.kind == "concat":
                channels = sum(b.channels or 0 for b in branches)
            else:
                chan_set = {b.channels for b in branches}
                if len(chan_set) > 1:
                    problems.append(f"resadd {name!r}: branch channels differ "
                                    f"({sorted(c or 0 for c in chan_set)})")
                channels = branches[0].channels
            rf_set = frozenset().union(*(b.rf_set for b in branches))
            stride = strides[0]
            if problems:
                message = "; ".join(problems)
            else:
                message = (f"merge {name!r} ok: channels={channels}, "
                           f"rf_set={{{', '.join(str(r) for r in sorted(rf_set))}}}")
            findings.append(Finding(node=name, ok=not problems, message=message, rf_set=rf_set))
        if max(stride, max(rf_set), channels or 0, *(dims or ())) > _FLOAT_MAX:
            raise ParseError(f"layer {name!r}: stride, receptive field, channels or output dims "
                             f"past the float range (max {sys.float_info.max:g})")
        infos[name] = RFInfo(
            receptive_field=max(rf_set),
            cumulative_stride=stride,
            rf_set=rf_set,
            channels=channels,
            spatial_dims=dims,
        )

    return infos, findings, errors


def analyze(
    graph: NetGraph, input_size: tuple[int, int] | None = None
) -> tuple[dict[str, RFInfo], list[Finding]]:
    """RFInfo for every layer, and the findings of the graph.

    There is one finding per merge node, ok or not, and one per layer whose
    output dims are not positive (its dims are then clamped to 1 so the pass
    can go on). Every inconsistency becomes a finding; raises ParseError only
    for a layer whose numbers pass the float range.
    """
    infos, findings, _ = _analyze(graph, input_size)
    return infos, findings


def receptive_field(
    graph: NetGraph, layer: str, input_size: tuple[int, int] | None = None
) -> RFInfo:
    """RFInfo of one layer.

    Raises KeyError for unknown layers. The whole graph is analyzed, so any
    merge in it whose branch strides differ (or spatial dims, when an input
    size is given), downstream of ``layer`` or not, raises
    :class:`IncompatibleMergeError`, as does any layer with non-positive
    output dims; the first such problem in topological order is named.
    Raises ParseError as :func:`analyze` does.
    """
    if layer not in graph.layers:
        raise KeyError(f"no layer named {layer!r}")
    infos, _, errors = _analyze(graph, input_size)
    if errors:
        raise IncompatibleMergeError(errors[0])
    return infos[layer]


def validate_variant(graph: NetGraph, input_w: int, input_h: int) -> list[Finding]:
    """Check every merge node, and every layer's output dims, at an input size.

    Concat requires equal branch spatial dims (channels add); resadd
    additionally requires equal channels. Violations come back as findings,
    not as exceptions.
    """
    return analyze(graph, (int(input_w), int(input_h)))[1]


def with_probe_window(graph: NetGraph) -> NetGraph:
    """Return a copy of the graph with a 3 x 3, 256-channel sliding-window
    layer appended to its single sink, mirroring a proposal head's first
    convolution. Raises ConfigError when the graph has several sinks or
    already has a layer of that name."""
    if PROBE_NAME in graph.layers:
        raise ConfigError(f"graph already has a layer named {PROBE_NAME!r}")
    sinks = graph.sinks()
    if len(sinks) != 1:
        raise ConfigError(f"probe needs a single sink layer, graph has {sinks}")
    layers = dict(graph.layers)
    layers[PROBE_NAME] = LayerSpec(
        kind="conv",
        kernel=3,
        stride=1,
        padding=1,
        channels_out=256,
        inputs=(sinks[0],),
    )
    return NetGraph(layers=layers, topo_order=graph.topo_order + (PROBE_NAME,))
