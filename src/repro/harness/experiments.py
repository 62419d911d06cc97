"""One experiment per table/figure of the paper's evaluation.

Each ``fig*`` function runs the required (architecture, workload)
matrix through a shared :class:`ExperimentRunner` (runs are cached and
trace-paired) and returns an :class:`ExperimentReport` whose series
correspond to the figure's plotted series. EXPERIMENTS maps experiment
ids to these functions; the CLI and the benchmark suite both dispatch
through it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.architectures.registry import CC_VARIANTS, FIGURE_ARCHITECTURES
from repro.common.config import EspConfig
from repro.common.stats import geometric_mean, variance
from repro.harness.reporting import ExperimentReport, format_table
from repro.harness.runner import ExperimentRunner
from repro.metrics.decomposition import COMPONENT_ORDER

TRANSACTIONAL = ["apache", "jbb", "oltp", "zeus"]
NAS = ["BT", "CG", "FT", "IS", "LU", "MG", "SP", "UA"]
SPEC_HALF = ["art-4", "gcc-4", "gzip-4", "mcf-4", "twolf-4"]
SPEC_HYBRID = ["art-gzip", "gcc-gzip", "gcc-twolf", "mcf-gzip", "mcf-twolf"]
MULTIPROGRAMMED = SPEC_HALF + SPEC_HYBRID
FIG45_WORKLOADS = NAS + TRANSACTIONAL  # the x-axis of Figures 4 and 5

#: Series of Figures 8-10 (CC aggregated over its four probabilities).
MAIN_FAMILIES = ["shared", "private", "d-nuca", "asr", "cc-avg", "esp-nuca"]


def _normalized(runner: ExperimentRunner, arch: str, baseline: str,
                workloads: Sequence[str]) -> List[float]:
    return [runner.aggregate(arch, wl).performance
            / runner.aggregate(baseline, wl).performance
            for wl in workloads]


def _cc_normalized(runner: ExperimentRunner, baseline: str,
                   workloads: Sequence[str]) -> Dict[str, List[float]]:
    """CC average/best/worst across cooperation probabilities, computed
    per workload as in Section 6.1 ('average performance of all
    configurations, having the worst and best performer embedded in the
    variability bars')."""
    avg, best, worst = [], [], []
    for wl in workloads:
        base = runner.aggregate(baseline, wl).performance
        values = [runner.aggregate(cc, wl).performance / base
                  for cc in CC_VARIANTS]
        avg.append(sum(values) / len(values))
        best.append(max(values))
        worst.append(min(values))
    return {"cc-avg": avg, "cc-best": best, "cc-worst": worst}


def _with_gmean(values: List[float]) -> List[float]:
    return values + [geometric_mean(values)]


def _performance_figure(runner: ExperimentRunner, experiment: str,
                        title: str, workloads: Sequence[str]
                        ) -> ExperimentReport:
    """The common shape of Figures 8, 9 and 10: performance of all six
    families normalized to the shared S-NUCA, plus the geometric mean."""
    runner.prefetch(FIGURE_ARCHITECTURES, workloads)
    report = ExperimentReport(experiment=experiment, title=title,
                              columns=list(workloads) + ["GMEAN"])
    for arch in ["shared", "private", "d-nuca", "asr"]:
        report.series[arch] = _with_gmean(
            _normalized(runner, arch, "shared", workloads))
    cc = _cc_normalized(runner, "shared", workloads)
    for name, values in cc.items():
        report.series[name] = _with_gmean(values)
    report.series["esp-nuca"] = _with_gmean(
        _normalized(runner, "esp-nuca", "shared", workloads))
    return report


# -- Figure 4: SP-NUCA dynamic partitioning --------------------------------------------

def fig4(runner: ExperimentRunner) -> ExperimentReport:
    report = ExperimentReport(
        experiment="fig4",
        title="SP-NUCA partitioning: flat LRU vs shadow tags vs static 12/4 "
              "(normalized to shadow tags)",
        columns=list(FIG45_WORKLOADS))
    runner.prefetch(["sp-nuca", "sp-nuca-static", "sp-nuca-shadow"],
                    FIG45_WORKLOADS)
    for arch in ["sp-nuca", "sp-nuca-static", "sp-nuca-shadow"]:
        report.series[arch] = _normalized(runner, arch, "sp-nuca-shadow",
                                          FIG45_WORKLOADS)
    report.notes.append(
        "paper: flat-LRU tracks shadow tags closely; the static partition "
        "is the poor performer")
    return report


# -- Figure 5: ESP-NUCA replacement policies ---------------------------------------------

def fig5(runner: ExperimentRunner) -> ExperimentReport:
    report = ExperimentReport(
        experiment="fig5",
        title="ESP-NUCA flat vs protected LRU (normalized to SP-NUCA)",
        columns=list(FIG45_WORKLOADS))
    runner.prefetch(["esp-nuca-flat", "esp-nuca", "sp-nuca"],
                    FIG45_WORKLOADS)
    for arch in ["esp-nuca-flat", "esp-nuca"]:
        report.series[arch] = _normalized(runner, arch, "sp-nuca",
                                          FIG45_WORKLOADS)
    report.notes.append(
        "paper: both improve on SP-NUCA; protected LRU is the more stable, "
        "especially on Apache/OLTP")
    return report


# -- Figure 6: average access time decomposition ------------------------------------------

def fig6(runner: ExperimentRunner) -> ExperimentReport:
    report = ExperimentReport(
        experiment="fig6",
        title="Average access time decomposition, transactional workloads "
              "(cycles per demand access)",
        columns=[s.value for s in COMPONENT_ORDER] + ["total"])
    runner.prefetch(FIGURE_ARCHITECTURES, TRANSACTIONAL)
    for wl in TRANSACTIONAL:
        rows = []
        for arch in FIGURE_ARCHITECTURES:
            agg = runner.aggregate(arch, wl)
            comps = [agg.access_time_component(s) for s in COMPONENT_ORDER]
            rows.append([arch] + comps + [sum(comps)])
            report.series[f"{wl}/{arch}"] = comps + [sum(comps)]
        report.extra[wl] = format_table(
            ["architecture"] + report.columns, rows, precision=2)
    return report


# -- Figure 7: on-chip vs off-chip behaviour ------------------------------------------------

def fig7(runner: ExperimentRunner) -> ExperimentReport:
    archs = FIGURE_ARCHITECTURES
    report = ExperimentReport(
        experiment="fig7",
        title="Off-chip accesses and on-chip latency normalized to shared "
              "(transactional workloads)",
        columns=list(archs))
    runner.prefetch(archs, TRANSACTIONAL)
    offchip, onchip = [], []
    for arch in archs:
        off_ratio, on_ratio = [], []
        for wl in TRANSACTIONAL:
            base = runner.aggregate("shared", wl)
            agg = runner.aggregate(arch, wl)
            off_ratio.append(agg.offchip_per_kilo_access
                             / max(base.offchip_per_kilo_access, 1e-9))
            on_ratio.append(agg.onchip_latency / max(base.onchip_latency, 1e-9))
        offchip.append(sum(off_ratio) / len(off_ratio))
        onchip.append(sum(on_ratio) / len(on_ratio))
    report.series["offchip-access"] = offchip
    report.series["onchip-latency"] = onchip
    report.notes.append(
        "paper: ESP-NUCA balances both — off-chip close to shared, on-chip "
        "latency close to private; private/ASR pay off-chip, shared pays "
        "on-chip latency")
    return report


# -- Figures 8-10: normalized performance per suite ---------------------------------------------

def fig8(runner: ExperimentRunner) -> ExperimentReport:
    report = _performance_figure(
        runner, "fig8",
        "Shared-normalized performance, transactional workloads",
        TRANSACTIONAL)
    report.notes.append(
        "paper: ESP-NUCA best on average (~+15% over shared); D-NUCA second")
    return report


def fig9(runner: ExperimentRunner) -> ExperimentReport:
    report = _performance_figure(
        runner, "fig9",
        "Shared-normalized performance, multiprogrammed (SPEC half-rate + hybrid)",
        MULTIPROGRAMMED)
    # Section 6.3's per-thread stability numbers: variance of per-core
    # IPC over the hybrid workloads ("ASR has a 100% higher variance in
    # average IPC than ESP-NUCA...").
    from repro.metrics.fairness import ipc_variance

    rows = []
    for arch in ["shared", "private", "d-nuca", "asr", "cc30", "esp-nuca"]:
        values = [ipc_variance(run)
                  for wl in SPEC_HYBRID
                  for run in runner.aggregate(arch, wl).runs]
        rows.append([arch, sum(values) / len(values)])
    report.extra["per-thread IPC variance (hybrids)"] = format_table(
        ["architecture", "mean IPC variance"], rows, precision=5)
    report.notes.append(
        "paper: private/ASR up to ~40% below shared on art/mcf half-rate; "
        "shared worst on hybrids (interference); ESP-NUCA adapts to both; "
        "per-thread IPC variance lowest for isolation-capable designs")
    return report


def fig10(runner: ExperimentRunner) -> ExperimentReport:
    report = _performance_figure(
        runner, "fig10",
        "Shared-normalized performance, NAS parallel benchmarks",
        NAS)
    report.notes.append(
        "paper: private-derived architectures lead; ESP-NUCA is the only "
        "shared derivative reaching them")
    return report


# -- Stability (abstract / Sections 6.2-6.4) ------------------------------------------------------

def stability(runner: ExperimentRunner) -> ExperimentReport:
    suites = {"transactional": TRANSACTIONAL,
              "multiprogrammed": MULTIPROGRAMMED,
              "nas": NAS,
              "all": TRANSACTIONAL + MULTIPROGRAMMED + NAS}
    archs = ["private", "d-nuca", "asr", "cc-avg", "esp-nuca"]
    report = ExperimentReport(
        experiment="stability",
        title="Variance of shared-normalized performance (stability; "
              "lower is more stable)",
        columns=list(suites))
    runner.prefetch(FIGURE_ARCHITECTURES, suites["all"])
    series: Dict[str, List[float]] = {arch: [] for arch in archs}
    for workloads in suites.values():
        cc = _cc_normalized(runner, "shared", workloads)
        for arch in archs:
            values = (cc["cc-avg"] if arch == "cc-avg"
                      else _normalized(runner, arch, "shared", workloads))
            series[arch].append(variance(values))
    report.series = series
    esp = series["esp-nuca"][-1]
    for other in ("d-nuca", "asr", "cc-avg"):
        if series[other][-1] > 0:
            report.notes.append(
                f"ESP variance is {esp / series[other][-1]:.2f}x of "
                f"{other} over all workloads (paper: well below 1 for "
                f"D-NUCA/CC; ASR can be lower on NAS)")
    return report


# -- Section 5.2 ablations ---------------------------------------------------------------------------

def ablation(runner: ExperimentRunner,
             workloads: Optional[Sequence[str]] = None) -> ExperimentReport:
    """Sensitivity of ESP-NUCA to the duel parameters (d, a, b) and the
    number of monitored conventional sets — the sweep behind the
    Section 5.2 configuration choice."""
    workloads = list(workloads or ["apache", "oltp", "CG", "art-4"])
    base_cfg = runner.config
    variants: Dict[str, EspConfig] = {
        "d=1": replace(base_cfg.esp, degradation_shift=1),
        "d=2": replace(base_cfg.esp, degradation_shift=2),
        "d=3 (paper)": base_cfg.esp,
        "d=4": replace(base_cfg.esp, degradation_shift=4),
        "a=0": replace(base_cfg.esp, ema_shift=0),
        "a=2": replace(base_cfg.esp, ema_shift=2),
        "b=4": replace(base_cfg.esp, ema_bits=4),
        "b=12": replace(base_cfg.esp, ema_bits=12),
        "conv-sets=1": replace(base_cfg.esp, conventional_sample_sets=1),
        "conv-sets=4": replace(base_cfg.esp, conventional_sample_sets=4),
    }
    report = ExperimentReport(
        experiment="ablation",
        title="ESP-NUCA parameter sensitivity (normalized to SP-NUCA)",
        columns=workloads + ["GMEAN"])
    configs = {label: replace(base_cfg, esp=esp_cfg)
               for label, esp_cfg in variants.items()}
    runner.prefetch(["sp-nuca"], workloads)
    runner.prefetch_custom(
        [(f"esp[{label}]", cfg, "esp-nuca", wl)
         for label, cfg in configs.items() for wl in workloads])
    for label, cfg in configs.items():
        values = []
        for wl in workloads:
            base = runner.aggregate("sp-nuca", wl).performance
            agg = runner.aggregate_custom(f"esp[{label}]", cfg, "esp-nuca",
                                          wl)
            values.append(agg.performance / base)
        report.series[label] = _with_gmean(values)
    return report


EXPERIMENTS: Dict[str, Callable[[ExperimentRunner], ExperimentReport]] = {
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "stability": stability,
    "ablation": ablation,
}


def run_experiment(name: str, runner: Optional[ExperimentRunner] = None
                   ) -> ExperimentReport:
    try:
        func = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(EXPERIMENTS)
        raise KeyError(f"unknown experiment {name!r}; known: {known}") from None
    return func(runner or ExperimentRunner())
