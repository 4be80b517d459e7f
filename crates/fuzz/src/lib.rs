//! # rest-fuzz — adversarial corpus generation for the REST stack
//!
//! Mechanical scenario-coverage growth (ROADMAP item 4): a seeded
//! generator emits randomized-but-well-formed guest programs
//! with ground-truth bug injection, a tri-oracle differential harness
//! judges each one (restlint static verdicts, functional emulation at
//! all three execution tiers, and the timing path), and a deterministic
//! minimizer shrinks every interesting case to a 1-minimal reproducer.
//!
//! | Module | Purpose |
//! |--------|---------|
//! | [`rng`] | Seeded ChaCha8 stream |
//! | [`gen`] | Allocator-trace cases, bug taxonomy, lowering to guest asm |
//! | [`oracle`] | Tri-oracle run + disagreement classification |
//! | [`minimize`] | Deterministic 1-minimal shrinking |
//!
//! The campaign driver (rounds-until-dry, `fuzz.json`)
//! lives in `rest-bench`; this crate is the pure, deterministic core,
//! so every piece is unit-testable without filesystem access.

#![forbid(unsafe_code)]

pub mod gen;
pub mod minimize;
pub mod oracle;
pub mod rng;

pub use gen::{lower, BugKind, Case, CaseStream, GroundTruth, TraceOp, BUG_SLOT, GRANULE};
pub use minimize::{is_one_minimal, minimize};
pub use oracle::{campaign_rt, run_case, CaseRecord, Class};
pub use rng::FuzzRng;
