//! Observability layer for the REST simulator (`rest-obs`).
//!
//! The paper's headline claims are *attributions*: Figure 3 splits
//! ASan's overhead by software component, §VI-B attributes debug-mode
//! cost to ROB-blocked store cycles. This crate provides the shared
//! vocabulary the simulator uses to make those attributions visible —
//! not just as end-of-run scalars but over time, per pipeline resource,
//! and per host phase:
//!
//! * [`cpi`] — commit-time **CPI stacks**: every simulated cycle is
//!   charged to exactly one of eleven components
//!   (base/fetch/branch/IQ/ROB/LSQ/L1D-miss/L2-miss/DRAM/store-drain/
//!   REST-check), so the components always sum to `core.cycles`.
//! * [`sample`] — **interval time-series**: periodic snapshots of the
//!   full counter map plus occupancy gauges (ROB/IQ/LQ/SQ, MSHRs,
//!   write buffers), taken every N committed instructions.
//! * [`perfetto`] — **Chrome trace-event export**: pipeline traces as
//!   Perfetto-loadable JSON (one track per pipeline stage, one slice
//!   per micro-op, software component as category).
//! * [`audit`] — **violation audit log**: every REST exception / ASan
//!   report with PC, address, mode and component provenance.
//! * [`profile`] — **host self-profiling**: the `rest-host-profile/v2`
//!   document (wall time per phase; per engine job the worker, start,
//!   queue and wall time, cache flag and outcome; per-worker rollup,
//!   cache hits/misses and panic count) with a cross-member-consistency
//!   validator, and its campaign timeline as a Perfetto trace. The
//!   repository's perf trajectory is `results/BENCH_baseline.json`.
//! * [`hotspots`] — the `rest-hotspots/v1` schema for guest hotspot
//!   profiles (per-block/per-function cycle rollups plus the
//!   per-allocation-site check-attribution table), with a validator
//!   that enforces the exact-sum invariants.
//! * [`elide`] — the `rest-elide/v1` schema for static check-elision
//!   maps, with a validator for the count/sortedness invariants (a
//!   malformed elision map is a security bug, so CI re-validates every
//!   committed artifact).
//! * [`json`] — the hand-rolled, insertion-ordered [`Json`] value tree
//!   every sink serialises through (the build environment has no
//!   registry access, so no serde), plus a small parser used by the
//!   validation tests and CI.
//!
//! The crate is dependency-free and sits below every other simulator
//! crate, so `rest-mem`, `rest-cpu`, `rest-runtime` and `rest-bench`
//! can all speak the same observability types. Everything here is
//! plain data: collection stays zero-cost-when-off because the *users*
//! of these types gate sampling and tracing behind configuration.

#![forbid(unsafe_code)]

pub mod audit;
pub mod cpi;
pub mod elide;
pub mod hotspots;
pub mod json;
pub mod perfetto;
pub mod profile;
pub mod sample;

pub use audit::{AuditEntry, AuditLog, FAULT_INJECTOR, MTE_TAGGER, PA_SIGNER};
pub use cpi::{CpiComponent, CpiStack};
pub use elide::{validate_elide, ELIDE_SCHEMA};
pub use json::{Json, MAX_PARSE_DEPTH};
pub use perfetto::PerfettoTrace;
pub use profile::{HostProfile, JobTiming};
pub use sample::{Gauges, IntervalSample, TimeSeries};
