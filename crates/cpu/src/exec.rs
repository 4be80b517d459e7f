//! The unified execution interface over the functional emulator.
//!
//! Three kinds of consumers drive the emulator: the timing core
//! materialises the micro-op stream, one replay window of instructions
//! at a time in [`crate::System::run`] and one instruction at a time
//! through [`ExecEngine::step`]; functional-only harnesses (the fuzz
//! oracle's functional tiers, attacks, workloads, `restlint
//! --differential`, the benchmark crate's `functional-sweep` and the
//! tests) run whole programs while merely counting micro-ops
//! ([`ExecEngine::run_functional`]); and differential gates drive two
//! engines in lockstep over materialised chunks
//! ([`ExecEngine::run_chunk`]). The trait pins one contract for all of
//! them, so an execution tier (reference decode, pre-decoded tables,
//! superblock traces — see [`crate::ExecTier`]) slots underneath every
//! consumer without any of them changing.
//!
//! Under every entry point the emulator's step reads the same two
//! tables of [`rest_isa::DecodedProgram`]: the **op table**, one
//! 16-byte [`rest_isa::Op`] per PC that the step dispatches on once, is
//! read by every consumer; the **template table** of prebuilt
//! [`DynInst`]s is read only by consumers that materialise micro-ops —
//! [`ExecEngine::step`], [`ExecEngine::run_chunk`] and the superblock
//! compiler. The counting paths ([`ExecEngine::step_quiet`],
//! [`ExecEngine::run_functional`]) never touch it. The Reference tier
//! keeps neither table and decodes the same op on every fetch.
//!
//! Stop handling is part of the contract: once an engine has stopped,
//! every step method returns `false` without executing, and
//! [`ExecEngine::take_stop`] hands over the reason **once** — after it,
//! the engine stays permanently stopped (it never resumes, and a second
//! take returns `None`).

use rest_isa::DynInst;

use crate::emulator::StopReason;

/// Uniform driving interface for functional execution engines.
pub trait ExecEngine {
    /// Executes one macro instruction, appending its micro-ops to
    /// `out`. Returns `false` once the program has stopped.
    fn step(&mut self, out: &mut Vec<DynInst>) -> bool;

    /// Executes one macro instruction without materialising micro-ops
    /// (they are counted for the uop budget, nothing more).
    fn step_quiet(&mut self) -> bool;

    /// Why execution stopped, if it has (and the reason has not been
    /// taken).
    fn stop_reason(&self) -> Option<&StopReason>;

    /// Takes ownership of the stop reason without cloning it. Call
    /// once, after the run loop has exited; a taken engine is
    /// permanently stopped — further steps return `false` and a second
    /// take returns `None`.
    fn take_stop(&mut self) -> Option<StopReason>;

    /// Macro instructions retired so far.
    fn insts(&self) -> u64;

    /// Micro-ops emitted so far (including injected ones).
    fn uops(&self) -> u64;

    /// Current program counter.
    fn pc(&self) -> u64;

    /// Runs the program to completion functionally, discarding the
    /// micro-op stream (the fuzz oracle's functional tiers, the
    /// benchmark crate's `functional-sweep`, fast architectural tests),
    /// and returns why it stopped — `None` only when the reason had
    /// already been taken. This is where block-dispatch tiers earn
    /// their keep; the default is the plain quiet-step loop.
    fn run_functional(&mut self) -> Option<&StopReason> {
        while self.step_quiet() {}
        self.stop_reason()
    }

    /// Executes **at least** `min_insts` macro instructions (or until
    /// the program stops), appending every micro-op to `out`, and
    /// returns how many were executed. Tiers that retire instructions
    /// in blocks may overshoot; drive the slower engine of a lockstep
    /// pair with the faster engine's return value to stay aligned.
    fn run_chunk(&mut self, out: &mut Vec<DynInst>, min_insts: u64) -> u64 {
        let start = self.insts();
        while self.insts() - start < min_insts && self.step(out) {}
        self.insts() - start
    }
}
