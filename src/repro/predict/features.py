"""Featurisation of scenarios for performance prediction.

Features follow the literature the paper builds on (Lamar et al.: a few
application inputs dominate; Mariani et al. / A2Cloud-RF: machine
descriptors):

* machine: log cores/node, clock, log memory bandwidth, log L3, RDMA flag,
  log network bandwidth, network latency;
* shape: log nodes, log total ranks;
* workload: log total work and log working set from the application's
  performance model (when the app is known), otherwise log-scaled raw
  numeric inputs.

Everything numeric is log-transformed — execution time spans orders of
magnitude and behaves multiplicatively in all of these factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.cloud.skus import VmSku, get_sku
from repro.core.dataset import DataPoint
from repro.core.scenarios import Scenario
from repro.errors import ConfigError


def _log(value: float) -> float:
    if value <= 0:
        raise ValueError(f"cannot log-transform non-positive value {value}")
    return math.log(value)


@dataclass(frozen=True)
class FeatureSpec:
    """Names + extraction of the feature vector.

    Parameters
    ----------
    appname:
        When set, workload features come from the registered performance
        model's ``validate_inputs``/``total_work``/``working_set_bytes``
        (physics-informed features).  When None, raw numeric appinputs are
        used directly (model-free mode, as a generic tool would).
    input_keys:
        The appinput keys used in model-free mode, fixed at spec creation
        so train and predict vectors line up.
    """

    appname: Optional[str] = None
    input_keys: tuple = ()

    @property
    def names(self) -> List[str]:
        base = [
            "log_cores", "clock_ghz", "log_mem_bw", "log_l3", "rdma",
            "log_net_bw", "net_latency_us", "log_nodes", "log_ranks",
        ]
        if self.appname:
            return base + ["log_work", "log_working_set"]
        return base + [f"log_input_{k}" for k in self.input_keys]

    @property
    def dim(self) -> int:
        return len(self.names)

    # -- vector assembly -----------------------------------------------------

    def vector(self, sku: VmSku, nnodes: int, ppn: int,
               appinputs: Mapping[str, str]) -> np.ndarray:
        inter = sku.interconnect
        machine = [
            _log(sku.cores),
            sku.clock_ghz,
            _log(sku.mem_bw_Bps),
            _log(sku.l3_bytes),
            1.0 if sku.has_rdma else 0.0,
            _log(inter.bandwidth_Bps) if inter else _log(1.25e9),
            (inter.latency_s if inter else 45e-6) * 1e6,
            _log(nnodes),
            _log(nnodes * ppn),
        ]
        return np.array(machine + self._workload(appinputs), dtype=float)

    def _workload(self, appinputs: Mapping[str, str]) -> List[float]:
        if self.appname:
            from repro.api.registry import perf_models
            from repro.perf.noise import NO_NOISE

            model = perf_models.create(self.appname, NO_NOISE)
            params = model.validate_inputs(appinputs)
            return [
                _log(model.total_work(params)),
                _log(model.working_set_bytes(params)),
            ]
        out = []
        for key in self.input_keys:
            raw = appinputs.get(key)
            try:
                value = float(str(raw).split()[0]) if raw is not None else 1.0
            except ValueError:
                value = 1.0
            out.append(_log(max(value, 1e-9)))
        return out

    # -- construction ---------------------------------------------------------

    @classmethod
    def for_dataset(cls, points: Sequence[DataPoint],
                    use_app_model: bool = True) -> "FeatureSpec":
        """Infer a spec from training data."""
        if not points:
            raise ConfigError("cannot build a feature spec from no data")
        appnames = {p.appname for p in points}
        if use_app_model and len(appnames) == 1:
            return cls(appname=next(iter(appnames)))
        keys = sorted({k for p in points for k in p.appinputs})
        return cls(appname=None, input_keys=tuple(keys))

    @classmethod
    def for_columns(cls, snap, use_app_model: bool = True) -> "FeatureSpec":
        """Columnar twin of :meth:`for_dataset` over a
        :class:`~repro.store.snapshot.ColumnarSnapshot` (same spec, same
        errors; only the groups actually referenced by rows count)."""
        if not snap.n:
            raise ConfigError("cannot build a feature spec from no data")
        app_codes = np.unique(snap.appname_codes)
        if use_app_model and len(app_codes) == 1:
            return cls(appname=snap.appnames[int(app_codes[0])])
        keys = sorted({
            k for code in np.unique(snap.appinputs_codes)
            for k in snap.appinputs_groups[int(code)]
        })
        return cls(appname=None, input_keys=tuple(keys))


def featurize_point(spec: FeatureSpec, point: DataPoint) -> np.ndarray:
    return spec.vector(get_sku(point.sku), point.nnodes, point.ppn,
                       point.appinputs)


def featurize_scenario(spec: FeatureSpec, scenario: Scenario) -> np.ndarray:
    return spec.vector(get_sku(scenario.sku_name), scenario.nnodes,
                       scenario.ppn, scenario.appinputs)


def design_matrix(spec: FeatureSpec,
                  points: Sequence[DataPoint]) -> np.ndarray:
    """Stack feature vectors for a training set."""
    return np.vstack([featurize_point(spec, p) for p in points])


def design_matrix_columns(spec: FeatureSpec, snap) -> np.ndarray:
    """Columnar twin of :func:`design_matrix`.

    Feature vectors are a pure function of ``(sku, nnodes, ppn,
    appinputs)``, so they are computed once per unique combination and
    gathered back to row order — bit-identical to the per-point stack.
    """
    combos = np.stack([
        snap.sku_codes.astype(np.int64), snap.nnodes, snap.ppn,
        snap.appinputs_codes.astype(np.int64),
    ], axis=1)
    uniq, inverse = np.unique(combos, axis=0, return_inverse=True)
    vectors = np.vstack([
        spec.vector(get_sku(snap.skus[int(s)]), int(n), int(p),
                    snap.appinputs_groups[int(g)])
        for s, n, p, g in uniq
    ])
    return vectors[np.asarray(inverse).reshape(-1)]
