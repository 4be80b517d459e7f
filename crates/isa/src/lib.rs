//! Mini-ISA for the REST reproduction.
//!
//! The REST paper grafts its two new instructions (`arm`, `disarm`) onto
//! x86 encodings inside gem5. The mechanism itself is ISA-agnostic: both
//! instructions behave as stores with special store-to-load-forwarding
//! semantics, and every other interaction happens in the L1 data cache.
//! This crate therefore defines a compact 64-bit RISC-style ISA that is
//! sufficient to express the paper's workloads and defenses:
//!
//! * integer ALU operations (register-register and register-immediate),
//! * loads and stores of 1/2/4/8 bytes,
//! * conditional branches, direct and indirect jumps,
//! * [`Inst::Arm`] and [`Inst::Disarm`] — the REST primitive,
//! * [`Inst::Ecall`] — the runtime-service interface (allocation, libc
//!   data-movement calls, I/O, program exit).
//!
//! The crate also provides:
//!
//! * [`ProgramBuilder`] — a label-based assembler DSL used by the
//!   workload generators and attack scenarios,
//! * [`GuestMemory`] — the sparse, paged functional memory image of the
//!   simulated machine,
//! * [`DynInst`] — the dynamic-instruction record exchanged between the
//!   functional emulator and the timing model, including the
//!   [`Component`] attribution labels used for the paper's Figure 3
//!   overhead breakdown.
//!
//! # Example
//!
//! ```
//! use rest_isa::{ProgramBuilder, Reg};
//!
//! // Sum the integers 1..=10 into a0, then halt.
//! let mut p = ProgramBuilder::new();
//! let lp = p.new_label();
//! p.li(Reg::A0, 0);
//! p.li(Reg::T0, 10);
//! p.bind(lp);
//! p.add(Reg::A0, Reg::A0, Reg::T0);
//! p.addi(Reg::T0, Reg::T0, -1);
//! p.bne(Reg::T0, Reg::ZERO, lp);
//! p.halt();
//! let program = p.build();
//! assert_eq!(program.len(), 6);
//! ```

#![forbid(unsafe_code)]

pub mod asm;
mod decoded;
mod dyninst;
mod guest;
mod inst;
mod program;
mod reg;

pub use asm::{parse_asm, AsmError};
pub use decoded::{DecodeOptions, DecodedProgram, GuestWrite, Op};
pub use dyninst::{BranchInfo, Component, DynInst, MemAccessKind, MemRef, OpKind};
pub use guest::{GuestMemory, PAGE_SIZE};
pub use inst::{AluOp, BranchCond, EcallNum, Inst, MemSize};
pub use program::{Label, Program, ProgramBuilder};
pub use reg::Reg;

/// Width of a cache line in bytes, shared by the ISA (token alignment) and
/// the memory hierarchy. The paper's system uses 64-byte lines.
pub const CACHE_LINE: u64 = 64;

/// Instructions occupy 4 bytes of the (virtual) code address space, so
/// program counters advance in steps of [`PC_STEP`].
pub const PC_STEP: u64 = 4;
