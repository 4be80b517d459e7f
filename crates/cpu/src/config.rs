use std::sync::Arc;

use rest_core::ElisionMap;
use rest_faults::FaultSpec;
use rest_mem::MemConfig;
use rest_runtime::RtConfig;

/// Functional execution tier. All three tiers are architecturally
/// identical by construction — the differential gate in `rest-bench`
/// holds their micro-op streams and stats byte-for-byte equal — and
/// differ only in how much static work they amortise per fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecTier {
    /// Re-decode every instruction on every fetch. The slow oracle CI
    /// diffs the other tiers against.
    Reference,
    /// Execute pre-decoded ops and replay prebuilt micro-op templates
    /// (`rest_isa::DecodedProgram`).
    #[default]
    Fast,
    /// The Fast tier's tables plus run-time superblock traces: hot
    /// straight-line regions discovered at backward-branch targets are
    /// compiled into fused trace ops and dispatched without per-step
    /// fetch/budget overhead. See `crate::superblock`.
    Trace,
}

impl ExecTier {
    /// Stable label used in cache keys and result columns.
    pub fn label(self) -> &'static str {
        match self {
            ExecTier::Reference => "reference",
            ExecTier::Fast => "fast",
            ExecTier::Trace => "trace",
        }
    }
}

/// Core (pipeline) configuration — the processor side of Table II.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions dispatched/issued per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Issue-queue entries.
    pub iq_entries: usize,
    /// Load-queue entries.
    pub lq_entries: usize,
    /// Store-queue entries.
    pub sq_entries: usize,
    /// Front-end depth in cycles (fetch→dispatch).
    pub frontend_depth: u64,
    /// Cycles from branch resolution to corrected fetch.
    pub mispredict_penalty: u64,
    /// Integer multiply latency.
    pub mul_latency: u64,
    /// Integer divide latency (unpipelined).
    pub div_latency: u64,
    /// Simple-ALU functional units.
    pub alu_units: usize,
    /// Multiplier units.
    pub mul_units: usize,
    /// L1-D access ports (loads + draining stores per cycle).
    pub mem_ports: usize,
    /// Branch-predictor global-history bits (gshare; stand-in for the
    /// paper's L-TAGE at similar storage).
    pub bpred_history_bits: usize,
    /// Branch-target-buffer entries.
    pub btb_entries: usize,
    /// Return-address-stack depth.
    pub ras_depth: usize,
    /// Ablation: serialise `arm`/`disarm` execution (each is the only
    /// in-flight instruction) instead of the paper's LSQ forwarding-check
    /// design — the simple-but-slow alternative §III-B rejects.
    pub serialize_rest_ops: bool,
}

impl CoreConfig {
    /// The paper's Table II core: 2 GHz, 8-wide fetch/issue/writeback,
    /// 64-entry IQ, 192-entry ROB, 32-entry LQ and SQ, L-TAGE-class
    /// prediction.
    pub fn isca2018() -> CoreConfig {
        CoreConfig {
            fetch_width: 8,
            issue_width: 8,
            commit_width: 8,
            rob_entries: 192,
            iq_entries: 64,
            lq_entries: 32,
            sq_entries: 32,
            frontend_depth: 6,
            mispredict_penalty: 3,
            mul_latency: 3,
            div_latency: 20,
            alu_units: 6,
            mul_units: 2,
            mem_ports: 2,
            bpred_history_bits: 15,
            btb_entries: 4096,
            ras_depth: 32,
            serialize_rest_ops: false,
        }
    }

    /// A narrow in-order-ish core (used for the Figure 3 breakdown,
    /// which the paper measured on an in-order core): single-issue,
    /// small windows.
    pub fn inorder() -> CoreConfig {
        CoreConfig {
            fetch_width: 1,
            issue_width: 1,
            commit_width: 1,
            rob_entries: 8,
            iq_entries: 4,
            lq_entries: 4,
            sq_entries: 4,
            frontend_depth: 4,
            mispredict_penalty: 2,
            mul_latency: 3,
            div_latency: 20,
            alu_units: 1,
            mul_units: 1,
            mem_ports: 1,
            bpred_history_bits: 12,
            btb_entries: 512,
            ras_depth: 8,
            serialize_rest_ops: false,
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::isca2018()
    }
}

/// Complete configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Pipeline configuration.
    pub core: CoreConfig,
    /// Memory-hierarchy configuration.
    pub mem: MemConfig,
    /// Runtime / protection-scheme configuration.
    pub rt: RtConfig,
    /// Seed for the token value (fixed per run for reproducibility).
    pub token_seed: u64,
    /// Safety cap on emulated micro-ops (guards against runaway guest
    /// programs; generously above any workload in this repository).
    pub max_uops: u64,
    /// Guest cycle budget (0 = disabled). The timing pipeline stops the
    /// run with [`crate::StopReason::CycleLimit`] once its cycle count
    /// reaches the budget; functional-only runs apply the same budget to
    /// retired micro-ops (1 uop ≥ 1 cycle on this machine, so the
    /// functional check is conservative but always terminates).
    pub max_cycles: u64,
    /// Seeded single-shot hardware fault to inject (None = fault-free).
    /// See `rest_faults::FaultSpec`.
    pub fault: Option<FaultSpec>,
    /// Record pipeline-stage timestamps for the first N micro-ops
    /// (0 = tracing off). See [`crate::PipelineTrace`].
    pub trace_uops: usize,
    /// Snapshot the full counter map plus occupancy gauges every N
    /// committed macro instructions into the result's time-series
    /// (0 = sampling off). See [`rest_obs::TimeSeries`].
    pub sample_interval: u64,
    /// Functional execution tier: reference re-decode, pre-decoded op
    /// tables, or superblock traces. Architecturally identical by
    /// construction (the differential gate in rest-bench compares the
    /// tiers byte-for-byte); exists so CI can diff results and perf can
    /// measure the speedups.
    pub tier: ExecTier,
    /// Collect the guest hotspot profile: dense per-PC cycle/uop/check
    /// counters plus the per-allocation-site check attribution table.
    /// Deterministic simulation state — off by default because the
    /// dense tables cost memory proportional to program size.
    pub profile_guest: bool,
    /// Static check-elision map from `rest-verify`: memory-access PCs
    /// whose REST/ASan check is proven unable to fire. The emulator
    /// skips check injection and validation at those PCs (application
    /// component only), counting each skip in
    /// `CoreStats::elided_checks`. `None` = every access checked.
    /// Shared via `Arc` because the engine reuses one map across the
    /// paired elided/full runs of a workload.
    pub elision: Option<Arc<ElisionMap>>,
}

impl SimConfig {
    /// Table II hardware with the given runtime configuration.
    pub fn isca2018(rt: RtConfig) -> SimConfig {
        SimConfig {
            core: CoreConfig::isca2018(),
            mem: MemConfig::isca2018(),
            rt,
            token_seed: 0x5e5f_1e1d,
            max_uops: 400_000_000,
            max_cycles: 0,
            fault: None,
            trace_uops: 0,
            sample_interval: 0,
            tier: ExecTier::Fast,
            profile_guest: false,
            elision: None,
        }
    }

    /// Narrow core variant for the Figure 3 breakdown.
    pub fn inorder(rt: RtConfig) -> SimConfig {
        SimConfig {
            core: CoreConfig::inorder(),
            ..SimConfig::isca2018(rt)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values() {
        let c = CoreConfig::isca2018();
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.rob_entries, 192);
        assert_eq!(c.iq_entries, 64);
        assert_eq!(c.lq_entries, 32);
        assert_eq!(c.sq_entries, 32);
    }

    #[test]
    fn sim_config_composes() {
        let s = SimConfig::isca2018(RtConfig::plain());
        assert_eq!(s.mem.l2.hit_latency, 20);
        let i = SimConfig::inorder(RtConfig::asan());
        assert_eq!(i.core.issue_width, 1);
        assert_eq!(i.rt.label(), "asan");
    }
}
