"""Property-based tests over configuration, scenarios, and stores."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appkit.metricvars import extract_vars, format_var
from repro.core.config import MainConfig
from repro.core.dataset import DataPoint, Dataset
from repro.core.scenarios import generate_scenarios, iter_input_combinations
from repro.core.taskdb import TaskDB
from repro.cloud.pricing import PriceCatalog

SKUS = ["Standard_HC44rs", "Standard_HB120rs_v2", "Standard_HB120rs_v3",
        "Standard_F72s_v2"]

identifier = st.text(alphabet=string.ascii_uppercase + "_",
                     min_size=1, max_size=12).filter(
    lambda s: not s[0].isdigit()
)
value_text = st.text(
    alphabet=string.ascii_letters + string.digits + " ._-", max_size=20
).map(str.strip)


@given(
    skus=st.lists(st.sampled_from(SKUS), min_size=1, max_size=4, unique=True),
    nnodes=st.lists(st.integers(min_value=1, max_value=64), min_size=1,
                    max_size=6, unique=True),
    input_values=st.lists(st.integers(min_value=1, max_value=99), min_size=1,
                          max_size=4, unique=True),
    ppr=st.integers(min_value=1, max_value=100),
)
@settings(max_examples=60)
def test_scenario_count_always_matches_product(skus, nnodes, input_values,
                                               ppr):
    """|scenarios| == |skus| x |nnodes| x |inputs| for every config."""
    config = MainConfig.from_dict({
        "subscription": "s", "skus": skus, "rgprefix": "rg",
        "appsetupurl": "", "nnodes": nnodes, "appname": "lammps",
        "region": "southcentralus", "ppr": ppr,
        "appinputs": {"BOXFACTOR": [str(v) for v in input_values]},
    })
    scenarios = generate_scenarios(config)
    assert len(scenarios) == len(skus) * len(nnodes) * len(input_values)
    assert len({s.scenario_id for s in scenarios}) == len(scenarios)
    # Every ppn respects the SKU's core count and the ppr floor of 1.
    for s in scenarios:
        assert 1 <= s.ppn


@given(st.dictionaries(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6),
    st.lists(value_text, min_size=1, max_size=3, unique=True),
    max_size=3,
))
def test_input_combinations_cardinality(appinputs):
    combos = list(iter_input_combinations(appinputs))
    expected = 1
    for values in appinputs.values():
        expected *= len(values)
    assert len(combos) == expected
    # All combinations distinct.
    assert len({tuple(sorted(c.items())) for c in combos}) == len(combos)


@given(st.dictionaries(identifier, value_text, max_size=6))
def test_metricvars_roundtrip(variables):
    stdout = "\n".join(
        format_var(name, value) for name, value in variables.items()
    )
    extracted = extract_vars(stdout)
    expected = {name: str(value).strip() for name, value in variables.items()}
    assert extracted == expected


@given(
    nodes=st.integers(min_value=1, max_value=512),
    seconds=st.floats(min_value=0, max_value=1e5, allow_nan=False),
)
def test_task_cost_nonnegative_and_linear(nodes, seconds):
    import math

    catalog = PriceCatalog()
    cost = catalog.task_cost("Standard_HB120rs_v3", nodes, seconds)
    assert cost >= 0
    double = catalog.task_cost("Standard_HB120rs_v3", nodes, 2 * seconds)
    assert math.isclose(double, cost * 2, rel_tol=1e-12, abs_tol=1e-300)


@given(
    sku=st.sampled_from(SKUS),
    nnodes=st.integers(min_value=1, max_value=64),
    t=st.floats(min_value=0.001, max_value=1e5, allow_nan=False),
    cost=st.floats(min_value=0, max_value=1e4, allow_nan=False),
    appname=st.sampled_from(["lammps", "openfoam", "wrf"]),
    inputs=st.dictionaries(
        st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=5),
        value_text, max_size=3,
    ),
)
@settings(max_examples=60)
def test_datapoint_dict_roundtrip(sku, nnodes, t, cost, appname, inputs):
    point = DataPoint(appname=appname, sku=sku, nnodes=nnodes, ppn=4,
                      exec_time_s=t, cost_usd=cost, appinputs=inputs)
    assert DataPoint.from_dict(point.to_dict()) == point


@given(rows=st.lists(
    st.tuples(
        st.sampled_from(SKUS),
        st.integers(min_value=1, max_value=32),
        st.floats(min_value=0.01, max_value=1e4, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    ),
    max_size=25,
))
@settings(max_examples=40)
def test_dataset_jsonl_roundtrip(rows, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ds") / "d.jsonl")
    data = Dataset([
        DataPoint(appname="lammps", sku=sku, nnodes=n, ppn=2,
                  exec_time_s=t, cost_usd=c)
        for sku, n, t, c in rows
    ])
    data.save(path)
    assert Dataset.load(path).points() == data.points()


@given(node_counts=st.lists(st.integers(min_value=1, max_value=500),
                            min_size=1, max_size=20, unique=True))
@settings(max_examples=40)
def test_taskdb_json_roundtrip(node_counts, tmp_path_factory):
    from repro.core.scenarios import Scenario

    path = str(tmp_path_factory.mktemp("db") / "t.json")
    db = TaskDB(path=path)
    db.add_scenarios([
        Scenario(scenario_id=f"t{i}", sku_name="Standard_HC44rs",
                 nnodes=n, ppn=44, appname="lammps")
        for i, n in enumerate(node_counts)
    ])
    db.mark_completed("t0", DataPoint(appname="lammps",
                                      sku="Standard_HC44rs",
                                      nnodes=node_counts[0], ppn=44,
                                      exec_time_s=1.0, cost_usd=0.1))
    db.save()
    restored = TaskDB.load(path)
    assert restored.counts() == db.counts()
    assert len(restored) == len(db)
