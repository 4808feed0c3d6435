"""Task DB and dataset store tests."""

import pytest

from repro.core.dataset import DataPoint, Dataset
from repro.core.scenarios import Scenario
from repro.core.taskdb import TaskDB, TaskStatus
from repro.errors import DatasetError


def scenario(sid="t00001", nnodes=2):
    return Scenario(scenario_id=sid, sku_name="Standard_HB120rs_v3",
                    nnodes=nnodes, ppn=120, appname="lammps",
                    appinputs={"BOXFACTOR": "30"})


def point(sku="Standard_HB120rs_v3", nnodes=2, t=100.0, cost=0.2, **kw):
    defaults = dict(appname="lammps", appinputs={"BOXFACTOR": "30"})
    defaults.update(kw)
    return DataPoint(sku=sku, nnodes=nnodes, ppn=120, exec_time_s=t,
                     cost_usd=cost, **defaults)


class TestTaskDB:
    def test_states_match_paper(self):
        """Paper Sec. III-C: states are pending, failed, completed."""
        assert {s.value for s in TaskStatus} == {
            "pending", "failed", "completed"
        }

    def test_add_and_counts(self):
        db = TaskDB()
        db.add_scenarios([scenario("a"), scenario("b")])
        assert len(db) == 2
        assert db.counts() == {"pending": 2, "failed": 0, "completed": 0}

    def test_duplicate_rejected(self):
        db = TaskDB()
        db.add_scenarios([scenario("a")])
        with pytest.raises(DatasetError, match="duplicate"):
            db.add_scenarios([scenario("a")])

    def test_mark_completed(self):
        db = TaskDB()
        db.add_scenarios([scenario("a")])
        record = db.mark_completed(
            "a", point(t=36.0, cost=0.576, app_vars={"LAMMPSSTEPS": "100"}),
            started_at=10.0, finished_at=46.0)
        assert record.status is TaskStatus.COMPLETED
        assert db.counts()["completed"] == 1
        assert (record.exec_time_s, record.cost_usd) == (36.0, 0.576)
        assert record.app_vars == {"LAMMPSSTEPS": "100"}
        assert (record.started_at, record.finished_at) == (10.0, 46.0)
        assert not record.predicted and record.preemptions == 0

    def test_mark_failed(self):
        db = TaskDB()
        db.add_scenarios([scenario("a")])
        db.mark_failed("a", "out of memory")
        assert db.get("a").failure_reason == "out of memory"

    def test_mark_skipped_stays_pending(self):
        db = TaskDB()
        db.add_scenarios([scenario("a")])
        db.mark_skipped("a")
        record = db.get("a")
        assert record.status is TaskStatus.PENDING
        assert record.skipped_by_sampler

    def test_unknown_id(self):
        with pytest.raises(DatasetError):
            TaskDB().get("ghost")

    def test_json_roundtrip(self, tmp_path):
        """Paper: 'This list is recorded and stored in a JSON file.'"""
        path = str(tmp_path / "tasks.json")
        db = TaskDB(path=path)
        db.add_scenarios([scenario("a"), scenario("b", nnodes=4)])
        db.mark_completed("a", point(t=36.0, cost=0.576,
                                     infra_metrics={"cpu_util": 0.8}))
        db.mark_failed("b", "quota")
        db.save()
        restored = TaskDB.load(path)
        assert len(restored) == 2
        assert restored.get("a").status is TaskStatus.COMPLETED
        assert restored.get("a").infra_metrics == {"cpu_util": 0.8}
        assert restored.get("b").failure_reason == "quota"
        assert restored.get("b").scenario.nnodes == 4

    def test_save_without_path_rejected(self):
        with pytest.raises(DatasetError):
            TaskDB().save()

    def test_load_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DatasetError, match="corrupt"):
            TaskDB.load(str(path))


class TestDataPoint:
    def test_validation(self):
        with pytest.raises(DatasetError):
            point(nnodes=0)
        with pytest.raises(DatasetError):
            point(t=-1)
        with pytest.raises(DatasetError):
            point(cost=-1)

    def test_dict_roundtrip(self):
        p = point(app_vars={"APPEXECTIME": "100"}, tags={"v": "1"},
                  infra_metrics={"cpu_util": 0.5}, predicted=True)
        assert DataPoint.from_dict(p.to_dict()) == p


class TestDataset:
    def make(self):
        return Dataset([
            point(nnodes=2, t=200, cost=0.4),
            point(nnodes=4, t=110, cost=0.44),
            point(sku="Standard_HC44rs", nnodes=2, t=900, cost=1.5),
            point(nnodes=2, t=50, cost=0.1,
                  appinputs={"BOXFACTOR": "10"}),
            point(nnodes=2, t=60, cost=0.2, appname="openfoam",
                  appinputs={"mesh": "40 16 16"}),
        ])

    def test_filter_by_appname(self):
        assert len(self.make().filter(appname="openfoam")) == 1

    def test_filter_by_sku_short_or_full(self):
        data = self.make()
        assert len(data.filter(sku="hc44rs")) == 1
        assert len(data.filter(sku="Standard_HC44rs")) == 1

    def test_filter_by_appinputs(self):
        data = self.make()
        assert len(data.filter(appinputs={"BOXFACTOR": "30"})) == 3

    def test_filter_by_nodes(self):
        data = self.make()
        assert len(data.filter(nnodes=[4])) == 1
        assert len(data.filter(min_nodes=3)) == 1
        assert len(data.filter(max_nodes=2)) == 4

    def test_filter_predicate(self):
        data = self.make()
        cheap = data.filter(predicate=lambda p: p.cost_usd < 0.3)
        assert all(p.cost_usd < 0.3 for p in cheap)

    def test_filter_excludes_predicted(self):
        data = Dataset([point(), point(predicted=True)])
        assert len(data.filter(include_predicted=False)) == 1

    def test_distinct(self):
        data = self.make()
        assert data.distinct("sku") == ["Standard_HB120rs_v3",
                                        "Standard_HC44rs"]
        assert set(data.distinct_input_keys()) == {"BOXFACTOR", "mesh"}

    def test_jsonl_roundtrip(self, tmp_path):
        path = str(tmp_path / "data.jsonl")
        data = self.make()
        data.save(path)
        restored = Dataset.load(path)
        assert restored.points() == data.points()

    def test_load_corrupt_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"appname": "x"}\n')
        with pytest.raises(DatasetError, match="line 1"):
            Dataset.load(str(path))

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "data.jsonl"
        p = point()
        import json

        path.write_text(json.dumps(p.to_dict()) + "\n\n")
        assert len(Dataset.load(str(path))) == 1
