//! Guest runtime for the REST simulator: the heap allocator, shadow
//! memory, stack-protection passes, and the `ecall` service layer.
//!
//! The paper's software contribution (§IV) is an AddressSanitizer-derived
//! stack: a hardened heap allocator whose redzones are REST tokens
//! instead of shadow-memory poison, plus compiler instrumentation for
//! stack frames. This crate implements every scheme side by side so
//! every figure's baselines come from the same machinery:
//!
//! * [`Heap`] — one allocator for all schemes: the plain,
//!   performance-first baseline (paper's "unsafe" binaries with the stock
//!   libc allocator); the ASan model's shadow-poisoned redzones and
//!   quarantine; the REST allocator's token redzones, quarantined frees
//!   filled with tokens, and the relaxed invariant that free-pool chunks
//!   are *zeroed* rather than blacklisted (§IV-A); and MTE's tags or PA's
//!   signatures placed through the protection backend,
//! * [`shadow`] — the ASan model's shadow memory: poisoning, per-access
//!   checks and libc-call interception (with the allocator, the paper's
//!   four overhead components of Figure 3),
//! * [`FrameGuard`] — the stack-protection pass, emitting either
//!   shadow-poisoning stores (ASan) or `arm`/`disarm` instructions (REST)
//!   at function prologues/epilogues,
//! * [`Runtime`] — the `ecall` dispatcher gluing it all to the emulator,
//!   including the `memcpy`/`memset` models that ASan intercepts.
//!
//! All runtime work is *recorded* as dynamic micro-ops through a
//! [`TrafficRecorder`], so every metadata store, shadow poke, and token
//! arm flows through the simulated pipeline and caches and shows up in
//! the measured overhead, exactly as in the paper's evaluation.

#![forbid(unsafe_code)]

pub mod alloc;
mod config;
mod env;
mod layout;
mod services;
pub mod shadow;
mod stackguard;
mod traffic;
mod violation;

pub use alloc::{redzone_for, AllocStats, Heap};
pub use config::{RtConfig, Scheme};
pub use env::RtEnv;
pub use layout::*;
pub use services::{EcallOutcome, Runtime};
pub use stackguard::{FrameGuard, FrameLayout, StackScheme};
pub use traffic::TrafficRecorder;
pub use violation::{AsanReport, AsanReportKind, Violation};
