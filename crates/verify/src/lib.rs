//! # rest-verify — static ARM/DISARM dataflow verifier
//!
//! REST (ISCA 2018) detects spatial and temporal memory-safety
//! violations at runtime by blacklisting memory with stored tokens. The
//! paper's §IV leaves a contract to the *software*: compiler-inserted
//! stack instrumentation and the hardened allocator must keep `arm` and
//! `disarm` balanced, and guest code must never touch a region that is
//! still armed. This crate checks that contract *statically*, before a
//! single simulated cycle runs:
//!
//! * [`cfg`] recovers basic blocks, intra-procedural edges, call
//!   targets, and function extents from a built [`rest_isa::Program`];
//! * [`domain`] provides the abstract domain — strided intervals for
//!   integers, allocation-site pointers, frame-relative addresses, and a
//!   taint bit for cross-allocation pointer arithmetic (the paper's
//!   §V-C redzone-jumping attack);
//! * [`analysis`] runs a forward worklist fixpoint per function and
//!   reports arm/disarm imbalance, statically guaranteed REST
//!   violations (`must-trap`), and a suite of general lints;
//! * [`dom`] builds per-function dominator trees over the recovered
//!   CFG (Cooper–Harvey–Kennedy, irreducible-safe);
//! * [`elide`] proves per-access-PC check-elision verdicts
//!   (`MustBeSafe` / `Redundant`) on top of the fixpoint and emits
//!   `rest-elide/v1` maps the emulator consumes to skip checks;
//! * [`report`] renders deterministic JSON for `results/lint.json`.
//!
//! The `restlint` binary lints the whole in-tree corpus: every workload
//! generator must verify clean, and every attack program must produce at
//! least one true finding. Must-trap verdicts can be cross-checked
//! against the functional emulator with `restlint --differential`.
//!
//! ```
//! use rest_isa::{EcallNum, MemSize, ProgramBuilder, Reg};
//! use rest_verify::{verify_program, Severity};
//!
//! // A store into a region that is still armed: guaranteed violation.
//! let mut p = ProgramBuilder::new();
//! p.li(Reg::T0, 0x5000);
//! p.arm(Reg::T0);
//! p.li(Reg::T1, 7);
//! p.store(Reg::T1, Reg::T0, 8, MemSize::B8);
//! p.li(Reg::A0, 0);
//! p.ecall(EcallNum::Exit);
//! let result = verify_program(&p.build());
//! assert!(result.has_must_trap());
//! assert_eq!(result.findings.iter().filter(|f| f.severity == Severity::MustTrap).count(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod cfg;
pub mod dom;
pub mod domain;
pub mod elide;
pub mod report;
mod vecmap;

pub use analysis::{verify_program, Finding, Severity, VerifyResult};
pub use cfg::{Block, Cfg, Function, Succ, Succs};
pub use dom::DomTree;
pub use domain::{AbsVal, SInt, SiteId};
pub use elide::{elide_program, ElideScheme, ElisionReport, ELIDE_SCHEMA};
pub use report::{report_json, DiffOutcome, ProgramReport, REPORT_SCHEMA};
