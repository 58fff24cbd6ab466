"""Property tests of config parsing: any JSON-shaped document gives a
RunConfig or a ConfigError, and a valid config survives serialization."""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dcsgd import ConfigError, RunConfig, parse_config, serialize_config
from dcsgd.config import config_from_dict
from dcsgd.engine import ALGORITHMS

# deterministic and small, so the suite stays fast and reproducible
SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# a custom topology builds an n x n matrix when it is validated, so no
# drawn node count is large
MAX_N = 16


def _custom(n):
    """A path through the n nodes plus extra edges, and maybe self weights."""
    extra = st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=2), max_size=n)
    path = [[i, i + 1] for i in range(n - 1)]
    return st.fixed_dictionaries(
        {"kind": st.just("custom"), "n": st.just(n),
         "edges": extra.map(lambda more: path + [e for e in more if e[0] != e[1]])},
        optional={"self_weights": st.lists(st.floats(0.0, 0.9), min_size=n, max_size=n)})


TOPOLOGIES = st.one_of(
    st.fixed_dictionaries({"kind": st.just("ring"), "n": st.integers(3, MAX_N)}),
    st.fixed_dictionaries({"kind": st.just("complete"), "n": st.integers(2, MAX_N)}),
    st.integers(2, MAX_N).flatmap(_custom),
)
PROBLEMS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("quadratic")}, optional={
        "dim": st.integers(1, 64), "heterogeneity": st.floats(0.0, 4.0),
        "noise": st.floats(0.0, 4.0)}),
    st.fixed_dictionaries({"kind": st.just("logistic")}, optional={
        "dim": st.integers(1, 64), "samples_per_node": st.integers(1, 64),
        "separation": st.floats(-4.0, 4.0), "reg": st.floats(0.0, 1.0)}),
)
COMPRESSORS = st.one_of(
    st.just({"kind": "identity"}),
    st.fixed_dictionaries({"kind": st.just("quantize"), "levels": st.integers(1, 255)}),
    st.fixed_dictionaries({"kind": st.just("sparsify"), "keep_prob": st.floats(0.01, 1.0)}),
    st.fixed_dictionaries({"kind": st.just("synthetic"), "noise_bound": st.floats(0.0, 4.0)}),
)
NETWORKS = st.fixed_dictionaries({}, optional={
    "model_dim": st.integers(1, 10**7), "steps_per_epoch": st.integers(1, 1000),
    "compute_s": st.floats(0.0, 1.0), "degree": st.integers(1, 8),
    "bandwidths": st.lists(st.floats(1e3, 1e11), min_size=1, max_size=4),
    "latencies": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
})
VALID_DOCUMENTS = st.fixed_dictionaries(
    {"algorithm": st.sampled_from(ALGORITHMS), "topology": TOPOLOGIES},
    optional={
        "problem": PROBLEMS, "compressor": COMPRESSORS, "network": NETWORKS,
        "gamma": st.one_of(st.just("theory"), st.floats(1e-6, 10.0)),
        "T": st.integers(0, 10**5), "seed": st.integers(0, 2**64),
        "trace_every": st.integers(1, 1000), "grad_threshold": st.floats(0.0, 1.0),
        "z_norm_cap": st.floats(1e-3, 1e12),
    },
)


def json_values(key: str):
    """Any JSON value; a node count ``n`` stays at most MAX_N."""
    ints = st.integers(max_value=MAX_N) if key == "n" else st.integers()
    leaves = st.none() | st.booleans() | ints | st.floats() | st.text(max_size=8)
    return st.recursive(
        leaves, lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=8), inner, max_size=4), max_leaves=8)


def _containers(value) -> list:
    """Every object and list in a JSON value, the value itself first."""
    if not isinstance(value, (dict, list)):
        return []
    items = value.values() if isinstance(value, dict) else value
    return [value] + [c for item in items for c in _containers(item)]


@st.composite
def documents(draw):
    """A valid document with one to three mutations: an entry of any object
    or list in it set to any JSON value or deleted, or an object key added."""
    doc = draw(VALID_DOCUMENTS)
    for _ in range(draw(st.integers(1, 3))):
        owner = draw(st.sampled_from(_containers(doc)))
        if isinstance(owner, dict):
            key = draw(st.sampled_from(sorted(owner) + ["extra"]))
        elif owner:
            key = draw(st.integers(0, len(owner) - 1))
        else:
            continue
        if draw(st.booleans()) and key != "extra":
            del owner[key]
        else:
            owner[key] = draw(json_values(key))
    return doc


@SETTINGS
@given(st.one_of(documents(), json_values("")))
def test_any_document_gives_a_config_or_a_config_error(doc):
    try:
        cfg = config_from_dict(doc)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


@SETTINGS
@given(VALID_DOCUMENTS)
def test_valid_config_survives_serialization(doc):
    try:
        cfg = config_from_dict(doc)
    except ConfigError:  # dcd with the synthetic compressor; a 2-node path
        assume(False)
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert serialize_config(again) == serialize_config(cfg)
