"""SmartSampler: the combined planner behind the collector's hook.

Strategy per scenario, in order:

1. If the VM type was already discarded -> **skip**.
2. If the bottleneck analyser saw a smaller run of this VM type saturate on
   communication -> **skip** (a slower *and* costlier point cannot join the
   front).
3. If fewer than ``policy.probe_runs`` distinct node counts have been
   measured for this (VM type, input) -> **run** (seed the models).
4. Try the discard rule (optimistic projection vs current front) -> **skip**
   the whole VM type when it fires.
5. If the fitted scaling law is confident (R^2 and interpolation range)
   -> **predict** instead of running.
6. Otherwise -> **run**.

Predictions are marked in the dataset (``predicted=True``) so advice tables
can flag them, exactly as envisioned in the paper ("our aim is not to
determine the exact execution times and costs for all scenarios, but to
generate a Pareto front to advise the user").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.core.collector import SamplingDecision
from repro.core.dataset import DataPoint
from repro.core.scenarios import Scenario
from repro.errors import SamplingError
from repro.sampling.bottleneck import BottleneckAnalyzer
from repro.sampling.discard import DiscardPolicy, VmTypeDiscarder
from repro.sampling.perffactor import ScalingLaw, fit_scaling_law

#: Estimates total work units from application inputs, enabling
#: cross-input curve transfer ("by using the same VM type but different
#: application input parameters and their influence on execution time ...
#: new curves could be identified" — paper Sec. III-F).
WorkEstimator = Callable[[Mapping[str, str]], float]


def work_estimator_for_app(appname: str) -> WorkEstimator:
    """A work estimator backed by the application's performance model."""
    from repro.api.registry import perf_models
    from repro.perf.noise import NO_NOISE

    model = perf_models.create(appname, NO_NOISE)

    def estimate(appinputs: Mapping[str, str]) -> float:
        return model.total_work(model.validate_inputs(appinputs))

    return estimate


@dataclass(frozen=True)
class SamplerPolicy:
    """Tuning knobs for the combined sampler."""

    probe_runs: int = 3
    min_r_squared: float = 0.985
    #: How far beyond the measured node range predictions may reach (2.0 =
    #: up to twice the largest measured node count).  1.0 would interpolate
    #: only — but Algorithm 1 walks node counts ascending, so pure
    #: interpolation never gets the chance to replace a run.
    extrapolation: float = 2.0
    enable_discard: bool = True
    enable_predict: bool = True
    enable_bottleneck: bool = True
    #: Transfer fitted curves across application inputs of the same VM type
    #: (needs a work estimator on the sampler).
    enable_transfer: bool = True
    discard: DiscardPolicy = field(default_factory=DiscardPolicy)

    def __post_init__(self) -> None:
        if self.probe_runs < 3:
            raise SamplingError(
                f"probe_runs must be >= 3 (scaling law needs 3 points), "
                f"got {self.probe_runs}"
            )
        if not 0.0 <= self.min_r_squared <= 1.0:
            raise SamplingError(
                f"min_r_squared out of [0,1]: {self.min_r_squared}"
            )


@dataclass
class SmartSampler:
    """Implements the collector's SamplingPlanner protocol."""

    hourly_prices: Dict[str, float]
    pending_nodes_by_sku: Dict[str, List[int]] = field(default_factory=dict)
    policy: SamplerPolicy = field(default_factory=SamplerPolicy)
    work_fn: Optional[WorkEstimator] = None
    _observed: Dict[Tuple[str, str], List[Tuple[float, float]]] = field(
        default_factory=dict
    )  # (sku, inputs_key) -> [(nnodes, time)]
    _measured_cells: Set[Tuple[str, int, str]] = field(default_factory=set)
    _work_by_inputs: Dict[str, float] = field(default_factory=dict)
    discarder: Optional[VmTypeDiscarder] = None
    bottlenecks: BottleneckAnalyzer = field(default_factory=BottleneckAnalyzer)
    decisions_log: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.discarder is None:
            self.discarder = VmTypeDiscarder(
                policy=self.policy.discard,
                hourly_prices=dict(self.hourly_prices),
            )

    # -- planner protocol -----------------------------------------------------------

    def decide(self, scenario: Scenario) -> SamplingDecision:
        assert self.discarder is not None
        sku = scenario.sku_name
        key = (sku, scenario.inputs_key())

        # 1. Whole VM type already discarded.
        if self.discarder.is_discarded(sku):
            return self._log(scenario, SamplingDecision(
                action="skip",
                reason=f"vm type discarded: {self.discarder.discard_reason(sku)}",
            ))

        # 2. Bottleneck saturation pruning.
        if (
            self.policy.enable_bottleneck
            and self.bottlenecks.should_skip_larger(sku, scenario.nnodes)
        ):
            return self._log(scenario, SamplingDecision(
                action="skip",
                reason="smaller node count already communication-saturated",
            ))

        self._note_work(scenario.inputs_key(), scenario.appinputs)
        observed = self._observed.get(key, [])
        distinct_nodes = {n for n, _ in observed}

        law = self._law_for(key)

        # 3. Seed the models with probe runs — unless a curve transferred
        #    from another input of this VM type already covers the cell.
        if len(distinct_nodes) < self.policy.probe_runs and law is None:
            return self._log(scenario, SamplingDecision(action="run"))

        # 4. Aggressive VM-type discarding.
        if self.policy.enable_discard and law is not None:
            pending = [
                n for n in self.pending_nodes_by_sku.get(sku, [])
                if (sku, n, scenario.inputs_key()) not in self._measured_cells
            ]
            if self.discarder.evaluate(sku, law, pending):
                return self._log(scenario, SamplingDecision(
                    action="skip",
                    reason=self.discarder.discard_reason(sku) or "discarded",
                ))

        # 5. Predict from the scaling law when confident.
        if (
            self.policy.enable_predict
            and law is not None
            and law.r_squared >= self.policy.min_r_squared
            and law.within_range(scenario.nnodes, self.policy.extrapolation)
        ):
            time_s = law.predict(scenario.nnodes)
            price = self.hourly_prices.get(sku)
            if price is None:
                raise SamplingError(f"no price for SKU {sku!r}")
            cost = scenario.nnodes * price * time_s / 3600.0
            return self._log(scenario, SamplingDecision(
                action="predict",
                predicted_time_s=time_s,
                predicted_cost_usd=cost,
                reason=f"scaling law R^2={law.r_squared:.4f}",
            ))

        # 6. Default: measure.
        return self._log(scenario, SamplingDecision(action="run"))

    def observe(self, point: DataPoint) -> None:
        assert self.discarder is not None
        key = (point.sku, point.inputs_key())
        self._note_work(point.inputs_key(), point.appinputs)
        self._observed.setdefault(key, []).append(
            (float(point.nnodes), point.exec_time_s)
        )
        self._measured_cells.add((point.sku, point.nnodes, point.inputs_key()))
        self.discarder.observe(point.sku, point.nnodes, point.exec_time_s,
                               point.cost_usd)
        if point.infra_metrics:
            self.bottlenecks.observe_dict(point.sku, point.nnodes,
                                          point.infra_metrics)

    # -- internals -----------------------------------------------------------------------

    def _law_for(self, key: Tuple[str, str]) -> Optional[ScalingLaw]:
        """The group's own fitted law, or one transferred across inputs."""
        observed = self._observed.get(key, [])
        if len({n for n, _ in observed}) >= 3:
            return fit_scaling_law(observed)
        if not (self.policy.enable_transfer and self.work_fn):
            return None
        return self._transferred_law(key)

    def _transferred_law(self, key: Tuple[str, str]) -> Optional[ScalingLaw]:
        """Rescale a sibling input's curve by the work ratio (Sec. III-F)."""
        sku, inputs_key = key
        target_work = self._work_by_inputs.get(inputs_key)
        if target_work is None or target_work <= 0:
            return None
        best: Optional[ScalingLaw] = None
        for (other_sku, other_inputs), points in self._observed.items():
            if other_sku != sku or other_inputs == inputs_key:
                continue
            if len({n for n, _ in points}) < 3:
                continue
            base_work = self._work_by_inputs.get(other_inputs)
            if base_work is None or base_work <= 0:
                continue
            law = fit_scaling_law(points).scaled_by_work(
                target_work / base_work
            )
            if best is None or law.r_squared > best.r_squared:
                best = law
        return best

    def _note_work(self, inputs_key: str,
                   appinputs: Mapping[str, str]) -> None:
        if self.work_fn is None or inputs_key in self._work_by_inputs:
            return
        try:
            self._work_by_inputs[inputs_key] = float(self.work_fn(appinputs))
        except Exception:  # noqa: BLE001 - estimator failure disables transfer
            self._work_by_inputs[inputs_key] = -1.0

    def _log(self, scenario: Scenario,
             decision: SamplingDecision) -> SamplingDecision:
        self.decisions_log.append(
            f"{scenario.scenario_id} {scenario.sku_name} n={scenario.nnodes}: "
            f"{decision.action}"
            + (f" ({decision.reason})" if decision.reason else "")
        )
        return decision

    @classmethod
    def for_scenarios(
        cls,
        scenarios: List[Scenario],
        hourly_prices: Dict[str, float],
        policy: Optional[SamplerPolicy] = None,
        work_fn: Optional[WorkEstimator] = None,
    ) -> "SmartSampler":
        """Build a sampler pre-loaded with the sweep's pending node counts.

        When all scenarios share one application and no ``work_fn`` is
        given, a model-backed estimator is attached automatically so
        cross-input transfer can engage on multi-input sweeps.
        """
        pending: Dict[str, List[int]] = {}
        for scenario in scenarios:
            pending.setdefault(scenario.sku_name, [])
            if scenario.nnodes not in pending[scenario.sku_name]:
                pending[scenario.sku_name].append(scenario.nnodes)
        if work_fn is None:
            appnames = {s.appname for s in scenarios}
            if len(appnames) == 1:
                try:
                    work_fn = work_estimator_for_app(next(iter(appnames)))
                except Exception:  # noqa: BLE001 - unknown app: no transfer
                    work_fn = None
        return cls(
            hourly_prices=dict(hourly_prices),
            pending_nodes_by_sku=pending,
            policy=policy or SamplerPolicy(),
            work_fn=work_fn,
        )


def _register_builtin_policies() -> None:
    """Named presets in the unified capability registry (repro.api)."""
    from repro.api.registry import register_sampling_policy, sampling_policies

    presets = {
        # The paper-calibrated defaults.
        "default": lambda: SamplerPolicy(),
        # Spend less: trust the scaling law earlier and discard harder.
        "aggressive": lambda: SamplerPolicy(min_r_squared=0.95),
        # Spend more: only predict near-perfect fits, never extrapolate far.
        "conservative": lambda: SamplerPolicy(min_r_squared=0.995,
                                              extrapolation=1.5),
        # Measure everything the budget allows; no skips, no predictions.
        "measure-all": lambda: SamplerPolicy(enable_discard=False,
                                             enable_predict=False,
                                             enable_bottleneck=False,
                                             enable_transfer=False),
    }
    for name, factory in presets.items():
        if name not in sampling_policies:
            register_sampling_policy(name)(factory)


_register_builtin_policies()
