"""Calibration against the paper's published measurements.

These tests pin the reproduction to the paper:

* Listing 4 (LAMMPS advice): HB120rs_v3 times for 3/4/8/16 nodes;
* Listing 3 (OpenFOAM advice): HB120rs_v3 times for 3/4/16 nodes;
* Figures 4-5: ~26x speedup / ~1.6 efficiency at 16 nodes on HB120rs_v2;
* Figure 2: SKU ordering (v3 fastest, hc44rs slowest) and hc44rs's
  ~1800 s 2-node point.

Absolute tolerances are deliberately loose (the paper's substrate was real
hardware; ours is a model) — the *shape* assertions are tight.
"""

import pytest

from repro.cloud.pricing import PriceCatalog
from repro.cloud.skus import get_sku
from repro.api.registry import perf_models

LAMMPS_INPUT = {"BOXFACTOR": "30"}  # 864M atoms, the paper's "860M"
OPENFOAM_INPUT = {"mesh": "40 16 16"}  # ~8M cells


def lammps_time(sku_name: str, nodes: int) -> float:
    sku = get_sku(sku_name)
    model = perf_models.create("lammps")
    result = model.simulate(sku, nodes, sku.cores, LAMMPS_INPUT)
    assert result.succeeded
    return result.exec_time_s


def openfoam_time(sku_name: str, nodes: int) -> float:
    sku = get_sku(sku_name)
    model = perf_models.create("openfoam")
    result = model.simulate(sku, nodes, sku.cores, OPENFOAM_INPUT)
    assert result.succeeded
    return result.exec_time_s


class TestLammpsListing4:
    """Paper Listing 4: (nodes, seconds) = (3,173) (4,132) (8,69) (16,36)."""

    @pytest.mark.parametrize("nodes,paper_s", [(3, 173), (4, 132), (8, 69),
                                               (16, 36)])
    def test_hb120v3_times(self, nodes, paper_s):
        measured = lammps_time("Standard_HB120rs_v3", nodes)
        assert measured == pytest.approx(paper_s, rel=0.10)

    def test_costs_match_listing4(self):
        prices = PriceCatalog()
        for nodes, paper_cost in [(3, 0.519), (4, 0.528), (8, 0.552),
                                  (16, 0.576)]:
            t = lammps_time("Standard_HB120rs_v3", nodes)
            cost = prices.task_cost("Standard_HB120rs_v3", nodes, t)
            assert cost == pytest.approx(paper_cost, rel=0.10)

    def test_node_seconds_rise_gently(self):
        """The advice table implies ~90% efficiency from 3 to 16 nodes."""
        ns3 = 3 * lammps_time("Standard_HB120rs_v3", 3)
        ns16 = 16 * lammps_time("Standard_HB120rs_v3", 16)
        assert 1.0 < ns16 / ns3 < 1.25


class TestLammpsFigures:
    def test_fig2_sku_ordering(self):
        """v3 fastest, v2 second, hc44rs slowest at every node count."""
        for nodes in (2, 4, 8, 16):
            t3 = lammps_time("Standard_HB120rs_v3", nodes)
            t2 = lammps_time("Standard_HB120rs_v2", nodes)
            thc = lammps_time("Standard_HC44rs", nodes)
            assert t3 < t2 < thc

    def test_fig2_hc44_magnitude(self):
        """hc44rs at 2 nodes sits near the paper's ~1,800-2,000 s axis top."""
        t = lammps_time("Standard_HC44rs", 2)
        assert 1300 < t < 2300

    def test_fig4_v2_superlinear_speedup(self):
        """Fig. 4 peaks near 26x at 16 nodes (ideal would be 16x)."""
        t1 = lammps_time("Standard_HB120rs_v2", 1)
        t16 = lammps_time("Standard_HB120rs_v2", 16)
        speedup = t1 / t16
        assert 20 < speedup < 30

    def test_fig5_efficiency_above_one(self):
        """Fig. 5: 'an efficiency greater than 1 ... super linear speed up'."""
        t1 = lammps_time("Standard_HB120rs_v2", 1)
        for nodes in (4, 8, 16):
            eff = t1 / lammps_time("Standard_HB120rs_v2", nodes) / nodes
            assert eff > 1.0
        eff16 = t1 / lammps_time("Standard_HB120rs_v2", 16) / 16
        assert 1.3 < eff16 < 1.9  # paper's axis tops out at 1.7

    def test_v3_not_strongly_superlinear(self):
        """Listing 4's gently-rising node-seconds mean v3 stays sublinear."""
        t1 = lammps_time("Standard_HB120rs_v3", 1)
        eff16 = t1 / lammps_time("Standard_HB120rs_v3", 16) / 16
        assert eff16 < 1.05


class TestOpenFoamListing3:
    """Paper Listing 3: v3 rows (3,59) (4,48) (16,34); v2 row (8,38)."""

    @pytest.mark.parametrize("nodes,paper_s", [(3, 59), (4, 48), (16, 34)])
    def test_hb120v3_times(self, nodes, paper_s):
        measured = openfoam_time("Standard_HB120rs_v3", nodes)
        assert measured == pytest.approx(paper_s, rel=0.12)

    def test_v2_8node_magnitude(self):
        measured = openfoam_time("Standard_HB120rs_v2", 8)
        assert measured == pytest.approx(38, rel=0.15)

    def test_sixteen_nodes_is_fastest_for_v3(self):
        times = {n: openfoam_time("Standard_HB120rs_v3", n)
                 for n in (3, 4, 8, 16)}
        assert times[16] == min(times.values())

    def test_poor_scaling_vs_lammps(self):
        """Paper shape: OpenFOAM 3->16 speedup ~1.7x; LAMMPS ~4.8x."""
        of = openfoam_time("Standard_HB120rs_v3", 3) / openfoam_time(
            "Standard_HB120rs_v3", 16
        )
        lj = lammps_time("Standard_HB120rs_v3", 3) / lammps_time(
            "Standard_HB120rs_v3", 16
        )
        assert of < 2.2
        assert lj > 4.0
        assert lj > 2 * of

    def test_hc44_loses_on_openfoam(self):
        assert openfoam_time("Standard_HC44rs", 16) > openfoam_time(
            "Standard_HB120rs_v3", 16
        )

    def test_cells_match_paper(self):
        """'40 16 16' => ~8 million cells."""
        model = perf_models.create("openfoam")
        params = model.validate_inputs(OPENFOAM_INPUT)
        assert params["cells"] == pytest.approx(8e6, rel=0.05)


class TestAtomsMath:
    def test_boxfactor_30_gives_864m_atoms(self):
        """Paper: 'multiply the box dimensions by 30 to obtain 800 million
        atoms' (plot subtitle says 860M; exact math is 864M)."""
        model = perf_models.create("lammps")
        params = model.validate_inputs(LAMMPS_INPUT)
        assert params["atoms"] == pytest.approx(864_000_000)
