import numpy as np
import pytest

from scaledet.errors import IncompatibleMergeError, ParseError
from scaledet.netgraph import (
    LayerSpec,
    NetGraph,
    analyze,
    builtin_arch,
    builtin_arch_names,
    parse_arch,
    receptive_field,
    validate_variant,
    with_probe_window,
)


def rf_by_perturbation(graph: NetGraph, layer: str, n: int = 4096) -> int:
    """Oracle: width of the input span that can influence one output unit.

    Runs a 1-D dependency-mask simulation: the probe unit's mask is pushed
    backward through the graph (conv/pool expand indices by their window,
    merges copy masks to every branch) and the receptive field is the extent
    of reachable input positions. Independent of the RF recursion.
    """
    dims: dict[str, int] = {}
    for name in graph.topo_order:
        spec = graph.layers[name]
        if spec.kind == "input":
            dims[name] = n
        elif spec.kind in ("conv", "pool"):
            src = dims[spec.inputs[0]]
            dims[name] = (src + 2 * spec.padding - spec.kernel) // spec.stride + 1
        else:
            branch_dims = {dims[s] for s in spec.inputs}
            assert len(branch_dims) == 1, "oracle needs aligned merge branches"
            dims[name] = branch_dims.pop()

    masks = {name: np.zeros(dims[name], dtype=bool) for name in graph.topo_order}
    masks[layer][dims[layer] // 2] = True

    for name in reversed(graph.topo_order):
        spec = graph.layers[name]
        active = np.nonzero(masks[name])[0]
        if spec.kind == "input" or active.size == 0:
            continue
        if spec.kind in ("conv", "pool"):
            src = spec.inputs[0]
            for t in range(spec.kernel):
                idx = active * spec.stride - spec.padding + t
                valid = idx[(idx >= 0) & (idx < dims[src])]
                masks[src][valid] = True
        else:
            for src in spec.inputs:
                masks[src] |= masks[name]

    source = next(name for name, spec in graph.layers.items() if spec.kind == "input")
    deps = np.nonzero(masks[source])[0]
    assert deps.size > 0
    span = int(deps.max() - deps.min() + 1)
    assert 0 < deps.min() and deps.max() < n - 1, "probe receptive field hit the border"
    return span


def random_graph(rng: np.random.Generator) -> tuple[NetGraph, str]:
    """Random chain up to 6 layers, optionally ending in an aligned merge."""
    lines = ["input data channels=3"]
    prev = "data"
    n_layers = int(rng.integers(1, 7))
    merge = rng.random() < 0.4 and n_layers >= 3
    chain_len = n_layers - 2 if merge else n_layers
    for i in range(chain_len):
        k = int(rng.integers(1, 8))
        s = int(rng.integers(1, 3))
        p = int(rng.integers(0, 4))
        if rng.random() < 0.25:
            lines.append(f"pool p{i} k={k} s={s} p={p} from {prev}")
            prev = f"p{i}"
        else:
            lines.append(f"conv c{i} k={k} s={s} p={p} c=8 from {prev}")
            prev = f"c{i}"
    final = prev
    if merge:
        # Aligned branches: odd kernels with same-padding and stride 1 keep
        # unit grids coincident, so the union-span oracle stays valid.
        for branch, k in (("ba", int(rng.choice([1, 3, 5, 7]))),
                          ("bb", int(rng.choice([1, 3, 5, 7])))):
            lines.append(f"conv {branch} k={k} s=1 p={(k - 1) // 2} c=8 from {prev}")
        kind = "concat" if rng.random() < 0.5 else "resadd"
        lines.append(f"{kind} merged from ba,bb")
        final = "merged"
    return parse_arch("\n".join(lines)), final


# One arch text per ParseError message of parse_arch, with the exact text.
PARSE_ERRORS = [
    ("input in channels=3\nconv c1 k=x s=1 p=1 c=8 from in", "line 2: k='x' is not an integer"),
    ("input in channels=0", "line 1: channels must be >= 1, got 0"),
    ("input in channels=3\npool p1 k=2 s=2 p=-1 from in", "line 2: p must be >= 0, got -1"),
    ("input in channels=3\nconv c1 k=3 s=1 p=1 c=8 stray from in",
     "line 2: expected key=value, got 'stray'"),
    ("input in channels=3\nconv c1 k=3 k=3 s=1 p=1 c=8 from in", "line 2: duplicate key 'k'"),
    ("input in channels=3\n\nupsample u1 from in", "line 3: unknown layer kind 'upsample'"),
    ("input in channels=3\nconv", "line 2: missing layer name"),
    ("input in channels=3\ninput in channels=3", "line 2: duplicate layer name 'in'"),
    ("input in channels=3\nconv c1 k=3 s=1 p=1 c=8", "line 2: missing 'from' clause"),
    ("input in channels=3\nconv c1 k=3 s=1 p=1 c=8 from", "line 2: 'from' names no layers"),
    ("input in channels=3\npool p1 s=2 from in", "line 2: pool layer requires k="),
    ("input in channels=3\nconcat m from in", "line 2: concat needs at least 2 inputs"),
    ("input in channels=3\nconv a k=3 s=1 p=1 c=8 from in\nconv b k=5 s=1 p=2 c=8 from in,a",
     "line 3: conv takes exactly one input"),
    ("input in channels=3\nresadd m from in,in", "line 2: repeated input name in 'from' clause"),
    ("input in channels=3\nconv c1 k=3 s=1 p=1 c=8 q=1 from in", "line 2: unexpected keys ['q']"),
    ("# nothing\n\n", "empty architecture description"),
    ("conv c1 k=3 s=1 p=1 c=8 from in", "expected exactly one input layer, found 0"),
    ("input in channels=3\nconv c1 k=3 s=1 p=1 c=8 from in,x",
     "line 2: layer 'c1' references undefined layer 'x'"),
    ("input in channels=3\nconv a k=3 s=1 p=1 c=8 from b\nconv b k=3 s=1 p=1 c=8 from a",
     "cycle detected involving layers ['a', 'b']"),
]


class TestParsing:
    @pytest.mark.parametrize("text, message", PARSE_ERRORS)
    def test_error_message(self, text, message):
        with pytest.raises(ParseError) as excinfo:
            parse_arch(text)
        assert str(excinfo.value) == message

    def test_cycle_names_the_cycle(self):
        # c is stuck behind the cycle but is not part of it.
        with pytest.raises(ParseError) as excinfo:
            parse_arch(
                "input in channels=3\n"
                "conv a k=3 s=1 p=1 c=8 from b\n"
                "conv b k=3 s=1 p=1 c=8 from a\n"
                "conv c k=3 s=1 p=1 c=8 from b"
            )
        assert str(excinfo.value) == "cycle detected involving layers ['a', 'b']"

    def test_pool_padding_defaults_to_zero(self):
        g = parse_arch("input in channels=3\npool p1 k=2 s=2 from in")
        assert g.layers["p1"] == LayerSpec(name="p1", kind="pool", kernel=2, stride=2, padding=0,
                                           inputs=("in",))

    def test_one_conv(self):
        g = parse_arch("input in channels=3\nconv c1 k=3 s=1 p=1 c=8 from in")
        assert len(g.layers) == 2
        assert g.layers["c1"].kernel == 3

    def test_comments_and_blank_lines(self):
        g = parse_arch("# top\n\ninput in channels=3\nconv c1 k=3 s=1 p=1 c=8 from in # tail\n")
        assert len(g.layers) == 2

    def test_dangling_reference(self):
        with pytest.raises(ParseError, match="convX"):
            parse_arch("input in channels=3\nconv c1 k=3 s=1 p=1 c=8 from convX")

    def test_unknown_kind(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_arch("input in channels=3\nupsample u1 k=2 s=2 from in")

    def test_duplicate_name(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_arch(
                "input in channels=3\nconv c1 k=3 s=1 p=1 c=8 from in\n"
                "conv c1 k=3 s=1 p=1 c=8 from in"
            )

    def test_cycle(self):
        with pytest.raises(ParseError, match="cycle"):
            parse_arch(
                "input in channels=3\n"
                "conv a k=3 s=1 p=1 c=8 from b\n"
                "conv b k=3 s=1 p=1 c=8 from a"
            )

    def test_missing_required_key(self):
        with pytest.raises(ParseError, match="requires k="):
            parse_arch("input in channels=3\nconv c1 s=1 p=1 c=8 from in")

    def test_two_inputs_rejected(self):
        with pytest.raises(ParseError, match="input layer"):
            parse_arch("input a channels=3\ninput b channels=3")

    def test_zf_fixture_has_eight_nodes(self):
        g = parse_arch(builtin_arch("zf"))
        assert len(g.layers) == 8
        assert g.topo_order[0] == "data"
        assert g.sinks() == ["conv5"]

    def test_builtin_names(self):
        assert set(builtin_arch_names()) == {"zf", "zf_ml", "zf_ms", "zf_res", "zf_combin"}


class TestReceptiveField:
    def test_single_conv(self):
        g = parse_arch("input in channels=3\nconv c1 k=3 s=1 p=1 c=8 from in")
        info = receptive_field(g, "c1")
        assert info.receptive_field == 3
        assert info.cumulative_stride == 1
        assert info.rf_set == frozenset({3})

    def test_zf_chain_and_window(self):
        g = parse_arch(builtin_arch("zf"))
        # The chain grows 7 -> 11 -> 27 -> 43 -> 75 -> 107 -> 139 -> 171.
        expected = {
            "conv1": (7, 2),
            "pool1": (11, 4),
            "conv2": (27, 8),
            "pool2": (43, 16),
            "conv3": (75, 16),
            "conv4": (107, 16),
            "conv5": (139, 16),
        }
        for layer, (rf, stride) in expected.items():
            info = receptive_field(g, layer)
            assert (info.receptive_field, info.cumulative_stride) == (rf, stride)
        probed = with_probe_window(g)
        info = receptive_field(probed, "rpn_window")
        assert info.receptive_field == 171
        assert info.cumulative_stride == 16

    def test_multi_kernel_branches_union(self):
        g = parse_arch(builtin_arch("zf_ms"))
        info = receptive_field(g, "msfuse")
        assert info.rf_set == frozenset({107, 139, 171})
        assert info.receptive_field == 171

    def test_residual_union(self):
        g = parse_arch(builtin_arch("zf_res"))
        info = receptive_field(g, "resout")
        assert info.rf_set == frozenset({107, 171})
        assert info.receptive_field == 171

    def test_unknown_layer(self):
        g = parse_arch(builtin_arch("zf"))
        with pytest.raises(KeyError):
            receptive_field(g, "conv9")

    def test_stride_mismatch_raises(self):
        g = parse_arch(
            "input in channels=3\n"
            "conv a k=3 s=2 p=1 c=8 from in\n"
            "conv b k=3 s=1 p=1 c=8 from in\n"
            "concat m from a,b"
        )
        with pytest.raises(IncompatibleMergeError, match="strides differ"):
            receptive_field(g, "m")

    def test_stride_mismatch_downstream_raises(self):
        # The bad merge consumes c1; c1's own receptive field is well defined,
        # but the whole graph is analyzed.
        g = parse_arch(
            "input in channels=3\n"
            "conv c1 k=3 s=2 p=1 c=8 from in\n"
            "conv c2 k=3 s=1 p=1 c=8 from in\n"
            "concat m from c1,c2"
        )
        with pytest.raises(IncompatibleMergeError, match="strides differ"):
            receptive_field(g, "c1")

    def test_non_positive_dims_raise(self):
        # At 4x4 the input shrinks to nothing at pool1 and again at pool2;
        # zf has no merge node.
        g = parse_arch(builtin_arch("zf"))
        with pytest.raises(IncompatibleMergeError) as excinfo:
            receptive_field(g, "conv1", (4, 4))
        assert str(excinfo.value) == "layer 'pool1' output dims (0, 0) are not positive"
        infos, findings = analyze(g, (4, 4))
        assert [(f.node, f.ok) for f in findings] == [("pool1", False), ("pool2", False)]
        assert infos["pool1"].spatial_dims == (1, 1)

    def test_analyze_reports_what_receptive_field_raises(self):
        g = parse_arch(
            "input in channels=3\n"
            "conv a k=3 s=2 p=1 c=8 from in\n"
            "conv b k=3 s=1 p=1 c=4 from in\n"
            "resadd m from a,b"
        )
        infos, [f] = analyze(g, (64, 64))
        assert not f.ok and f.node == "m"
        assert f.message.split("; ") == [
            "merge 'm': branch strides differ ([2, 1])",
            "merge 'm': branch spatial dims differ ([(32, 32), (64, 64)])",
            "resadd 'm': branch channels differ ([4, 8])",
        ]
        assert infos["m"].rf_set == frozenset({3})
        with pytest.raises(IncompatibleMergeError) as excinfo:
            receptive_field(g, "a", (64, 64))
        assert str(excinfo.value) == "merge 'm': branch strides differ ([2, 1])"

    def test_resadd_channel_mismatch_does_not_raise(self):
        g = parse_arch(
            "input in channels=3\n"
            "conv a k=3 s=1 p=1 c=8 from in\n"
            "conv b k=3 s=1 p=1 c=4 from in\n"
            "resadd m from a,b"
        )
        assert receptive_field(g, "m", (64, 64)).channels == 8

    def test_stride_multiplicative_and_merge_invariant(self):
        g = parse_arch(builtin_arch("zf_combin"))
        infos, _ = analyze(g)
        for name, spec in g.layers.items():
            if spec.kind in ("conv", "pool"):
                src = infos[spec.inputs[0]]
                assert infos[name].cumulative_stride == src.cumulative_stride * spec.stride
            elif spec.kind in ("concat", "resadd"):
                strides = {infos[s].cumulative_stride for s in spec.inputs}
                assert len(strides) == 1
            assert max(infos[name].rf_set) == infos[name].receptive_field

    def test_merge_rf_set_is_branch_union(self):
        g = parse_arch(builtin_arch("zf_combin"))
        infos, _ = analyze(g)
        for name, spec in g.layers.items():
            if spec.kind in ("concat", "resadd"):
                union = frozenset().union(*(infos[s].rf_set for s in spec.inputs))
                assert infos[name].rf_set == union

    def test_recursion_matches_perturbation_oracle(self):
        rng = np.random.default_rng(20240818)
        for _ in range(200):
            graph, layer = random_graph(rng)
            try:
                want = rf_by_perturbation(graph, layer)
            except AssertionError:
                raise
            got = receptive_field(graph, layer).receptive_field
            assert got == want, f"graph:\n{graph.layers}\nlayer {layer}: {got} != {want}"


class TestValidation:
    def test_zf_ml_concat(self):
        g = parse_arch(builtin_arch("zf_ml"))
        findings = validate_variant(g, 1392, 512)
        [f] = findings
        assert f.ok
        assert f.node == "fuse45"
        assert f.channels == 384 + 256
        assert f.rf_set == frozenset({107, 139})

    def test_zf_ms_concat(self):
        g = parse_arch(builtin_arch("zf_ms"))
        [f] = validate_variant(g, 1392, 512)
        assert f.ok
        assert f.channels == 3 * 128 + 256
        assert f.rf_set == frozenset({107, 139, 171})

    def test_zf_res_valid_when_channels_match(self):
        g = parse_arch(builtin_arch("zf_res"))
        [f] = validate_variant(g, 1392, 512)
        assert f.ok
        assert f.channels == 384
        assert f.rf_set == frozenset({107, 171})

    def test_zf_res_invalid_when_channels_differ(self):
        text = builtin_arch("zf_res").replace(
            "conv res2 k=3 s=1 p=1 c=384 from res1", "conv res2 k=3 s=1 p=1 c=256 from res1"
        )
        [f] = validate_variant(parse_arch(text), 1392, 512)
        assert not f.ok
        assert f.node == "resout"
        assert "channels differ" in f.message

    def test_zf_combin(self):
        g = parse_arch(builtin_arch("zf_combin"))
        findings = validate_variant(g, 1392, 512)
        assert [f.node for f in findings] == ["resout", "fuse"]
        assert all(f.ok for f in findings)
        assert findings[1].channels == 3 * 128 + 384 + 256

    def test_spatial_dim_mismatch_is_violation(self):
        g = parse_arch(
            "input in channels=3\n"
            "conv a k=3 s=1 p=1 c=8 from in\n"
            "conv b k=3 s=1 p=0 c=8 from in\n"
            "concat m from a,b"
        )
        [f] = validate_variant(g, 64, 64)
        assert not f.ok and f.node == "m"
        assert "spatial dims differ" in f.message

    def test_spatial_dims_formula(self):
        g = parse_arch(builtin_arch("zf"))
        infos, _ = analyze(g, (1392, 512))
        assert infos["conv1"].spatial_dims == (696, 256)
        assert infos["conv5"].spatial_dims == (86, 31)

    def test_offset_tracks_padding(self):
        g = parse_arch(builtin_arch("zf"))
        infos, _ = analyze(g)
        # Same-padding conv1 keeps the input offset; the unpadded pool
        # shifts by (k-1)/2 * jump = 1 * 2.
        assert infos["conv1"].offset == 0.5
        assert infos["pool1"].offset == 2.5
