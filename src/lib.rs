//! # REST: Practical Memory Safety with Random Embedded Secret Tokens
//!
//! A from-scratch Rust reproduction of *Practical Memory Safety with
//! REST* (Sinha & Sethumadhavan, ISCA 2018): the REST hardware primitive,
//! a cycle-level out-of-order CPU and memory-hierarchy simulator to host
//! it, the AddressSanitizer-derived software stack it competes with, the
//! twelve SPEC-like workloads of the paper's evaluation, and an attack
//! suite exercising its security claims.
//!
//! This crate is the umbrella: it re-exports every subsystem and offers
//! a small high-level API for the common "build a program, pick a
//! protection scheme, simulate" flow.
//!
//! ## Quickstart
//!
//! ```
//! use rest::prelude::*;
//!
//! // A tiny guest program: sum a heap array.
//! let mut p = ProgramBuilder::new();
//! p.li(Reg::A0, 256);
//! p.ecall(EcallNum::Malloc);
//! p.mv(Reg::S0, Reg::A0);
//! p.li(Reg::T0, 7);
//! p.sd(Reg::T0, Reg::S0, 0);
//! p.ld(Reg::A1, Reg::S0, 0);
//! p.halt();
//! let program = p.build();
//!
//! // Simulate it on the paper's Table II machine with REST heap safety.
//! let result = rest::simulate(program, RtConfig::rest(Mode::Secure, false));
//! assert!(result.cycles() > 0);
//! ```
//!
//! ## Crate map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`isa`] | `rest-isa` | mini-ISA, program builder, guest memory |
//! | [`core`] | `rest-core` | tokens, REST exceptions, Table I spec |
//! | [`mem`] | `rest-mem` | caches, MSHRs, DRAM, the token detector |
//! | [`cpu`] | `rest-cpu` | emulator + out-of-order timing model |
//! | [`runtime`] | `rest-runtime` | one heap for every scheme, stack pass |
//! | [`workloads`] | `rest-workloads` | the 12 SPEC-like benchmarks |
//! | [`attacks`] | `rest-attacks` | the §V security scenarios |
//! | [`verify`] | `rest-verify` | static ARM/DISARM verifier + `restlint` |

pub mod cli;

pub use rest_attacks as attacks;
pub use rest_core as core;
pub use rest_cpu as cpu;
pub use rest_isa as isa;
pub use rest_mem as mem;
pub use rest_runtime as runtime;
pub use rest_verify as verify;
pub use rest_workloads as workloads;

/// The most commonly used types, importable in one line.
pub mod prelude {
    pub use rest_attacks::{Attack, AttackOutcome, Expectation};
    pub use rest_core::{Mode, RestException, RestExceptionKind, Token, TokenWidth};
    pub use rest_cpu::{ExecEngine, ExecTier, SimConfig, SimResult, StopReason, System};
    pub use rest_isa::{EcallNum, Inst, MemSize, Program, ProgramBuilder, Reg};
    pub use rest_runtime::{RtConfig, Scheme, StackScheme, Violation};
    pub use rest_workloads::{Scale, Workload, WorkloadParams};
}

use prelude::*;

/// Simulates `program` on the paper's Table II machine under the given
/// runtime configuration, returning the full result (cycles, stats,
/// stop reason, output).
pub fn simulate(program: Program, rt: RtConfig) -> SimResult {
    System::new(program, SimConfig::isca2018(rt)).run()
}

/// Builds and simulates one of the paper's workloads at the given scale
/// under `rt`, wiring the stack-protection pass to match the scheme.
pub fn simulate_workload(workload: Workload, scale: Scale, rt: RtConfig) -> SimResult {
    run_workload(workload, scale, SimConfig::isca2018(rt))
}

/// [`simulate_workload`] on a caller-adjusted machine (the CLI's
/// `--trace`).
pub(crate) fn run_workload(workload: Workload, scale: Scale, cfg: SimConfig) -> SimResult {
    let params = WorkloadParams {
        scale,
        stack_scheme: cfg.rt.stack_scheme(),
        token_width: cfg.rt.token_width,
        seed: 0xC0FFEE,
    };
    System::new(workload.build(&params), cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulate_runs_a_program_end_to_end() {
        let mut p = ProgramBuilder::new();
        p.li(Reg::A0, 0);
        p.ecall(EcallNum::Exit);
        let r = simulate(p.build(), RtConfig::plain());
        assert_eq!(r.stop, StopReason::Exit(0));
    }

    #[test]
    fn simulate_workload_wires_stack_scheme() {
        let r = simulate_workload(
            Workload::Sjeng,
            Scale::Test,
            RtConfig::rest(Mode::Secure, true),
        );
        assert_eq!(r.stop, StopReason::Exit(0));
        // Full protection on a recursion-heavy workload must arm stack
        // redzones: arms appear in the mem-side token stats.
        assert!(r.mem.token_detections_on_fill > 0 || r.core.uops > 0);
    }
}
