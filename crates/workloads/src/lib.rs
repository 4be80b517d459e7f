//! SPEC CPU2006-like synthetic workloads.
//!
//! The paper evaluates REST on twelve SPEC CPU2006 C/C++ benchmarks
//! (with the *test* input set) compiled for i386. SPEC sources are
//! licensed and need a full x86 toolchain, so this crate rebuilds each
//! benchmark as a synthetic kernel in the mini-ISA that reproduces the
//! properties the paper's figures actually depend on:
//!
//! * **allocation behaviour** — the paper calls out xalancbmk at ≈ 0.2
//!   allocations per kilo-instruction (the highest), gcc close behind,
//!   and lbm/sjeng at fewer than 10 allocation calls total; every
//!   workload here is calibrated to that ordering (see
//!   [`Workload::profile`] and the calibration tests),
//! * **memory-access pattern** — streaming (bzip2, lbm, libquantum),
//!   pointer-chasing (gcc, xalancbmk), recursion with stack buffers
//!   (gobmk, sjeng), dense compute (namd, hmmer, h264ref), indirect
//!   sparse access (soplex, astar),
//! * **stack-buffer use** — kernels with fixed-size stack arrays go
//!   through the [`rest_runtime::FrameGuard`] pass so the full-protection
//!   configurations exercise prologue/epilogue hardening,
//! * **libc data movement** — kernels issue `memcpy`/`memset` ecalls
//!   where the originals use them, exercising ASan's interception.
//!
//! # Example
//!
//! ```
//! use rest_workloads::{Scale, Workload, WorkloadParams};
//!
//! let params = WorkloadParams::test(rest_runtime::StackScheme::None);
//! let program = Workload::Lbm.build(&params);
//! assert!(program.len() > 10);
//! ```

#![forbid(unsafe_code)]

mod astar;
mod bzip2;
mod common;
mod gcc;
mod gobmk;
mod h264ref;
mod hmmer;
mod lbm;
mod libquantum;
mod namd;
mod sjeng;
mod soplex;
mod xalancbmk;

pub use common::{Ctx, WorkloadParams};

use rest_isa::Program;

/// Input-set scale: `Test` for unit tests, `Ref` for the benchmark
/// harness. (The paper uses SPEC's *test* inputs; our `Ref` is simply a
/// longer run of the same kernel.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Short runs (~100–300 k instructions).
    Test,
    /// Benchmark runs (~0.5–2 M instructions).
    Ref,
}

/// Coarse allocation-intensity class, mirroring the paper's discussion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AllocIntensity {
    /// Fewer than 10 allocation calls in the whole run (lbm, sjeng).
    Minimal,
    /// Tens of allocations (streaming/compute kernels).
    Low,
    /// Allocation-heavy (astar, soplex).
    Medium,
    /// The top of the range: gcc, xalancbmk (≈ 0.1–0.3 allocs/kinst).
    High,
}

/// Static description of a workload's expected behaviour, used by the
/// calibration tests and the benchmark harness.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Benchmark name as printed in the paper's figures.
    pub name: &'static str,
    /// Allocation intensity class.
    pub alloc_intensity: AllocIntensity,
    /// Whether the kernel declares protected stack buffers.
    pub uses_stack_buffers: bool,
    /// Whether the kernel calls `memcpy`/`memset` through the runtime.
    pub uses_libc_calls: bool,
}

/// The twelve benchmarks of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    Bzip2,
    Gcc,
    Gobmk,
    Libquantum,
    Astar,
    H264ref,
    Lbm,
    Namd,
    Sjeng,
    Soplex,
    Xalancbmk,
    Hmmer,
}

impl Workload {
    /// All workloads in the paper's figure order.
    pub const ALL: [Workload; 12] = [
        Workload::Bzip2,
        Workload::Gobmk,
        Workload::Gcc,
        Workload::Libquantum,
        Workload::Astar,
        Workload::H264ref,
        Workload::Lbm,
        Workload::Namd,
        Workload::Sjeng,
        Workload::Soplex,
        Workload::Xalancbmk,
        Workload::Hmmer,
    ];

    /// The workload's behavioural profile.
    pub fn profile(self) -> Profile {
        match self {
            Workload::Bzip2 => Profile {
                name: "bzip2",
                alloc_intensity: AllocIntensity::Low,
                uses_stack_buffers: true,
                uses_libc_calls: true,
            },
            Workload::Gcc => Profile {
                name: "gcc",
                alloc_intensity: AllocIntensity::High,
                uses_stack_buffers: false,
                uses_libc_calls: false,
            },
            Workload::Gobmk => Profile {
                name: "gobmk",
                alloc_intensity: AllocIntensity::Low,
                uses_stack_buffers: true,
                uses_libc_calls: true,
            },
            Workload::Libquantum => Profile {
                name: "libquantum",
                alloc_intensity: AllocIntensity::Low,
                uses_stack_buffers: false,
                uses_libc_calls: false,
            },
            Workload::Astar => Profile {
                name: "astar",
                alloc_intensity: AllocIntensity::Medium,
                uses_stack_buffers: false,
                uses_libc_calls: false,
            },
            Workload::H264ref => Profile {
                name: "h264ref",
                alloc_intensity: AllocIntensity::Low,
                uses_stack_buffers: true,
                uses_libc_calls: true,
            },
            Workload::Lbm => Profile {
                name: "lbm",
                alloc_intensity: AllocIntensity::Minimal,
                uses_stack_buffers: false,
                uses_libc_calls: false,
            },
            Workload::Namd => Profile {
                name: "namd",
                alloc_intensity: AllocIntensity::Low,
                uses_stack_buffers: false,
                uses_libc_calls: false,
            },
            Workload::Sjeng => Profile {
                name: "sjeng",
                alloc_intensity: AllocIntensity::Minimal,
                uses_stack_buffers: true,
                uses_libc_calls: false,
            },
            Workload::Soplex => Profile {
                name: "soplex",
                alloc_intensity: AllocIntensity::Medium,
                uses_stack_buffers: false,
                uses_libc_calls: false,
            },
            Workload::Xalancbmk => Profile {
                name: "xalancbmk",
                alloc_intensity: AllocIntensity::High,
                uses_stack_buffers: false,
                uses_libc_calls: true,
            },
            Workload::Hmmer => Profile {
                name: "hmmer",
                alloc_intensity: AllocIntensity::Low,
                uses_stack_buffers: false,
                uses_libc_calls: false,
            },
        }
    }

    /// Short name (as used in figure axes).
    pub fn name(self) -> &'static str {
        self.profile().name
    }

    /// Looks a workload up by its figure name (exact, case-insensitive).
    ///
    /// Used by the benchmark harness's `--filter` flag and the CLI's
    /// `workload` subcommand.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name().eq_ignore_ascii_case(name))
    }

    /// All workloads whose figure name contains `pattern`
    /// (case-insensitive substring; empty pattern matches everything).
    pub fn matching(pattern: &str) -> Vec<Workload> {
        let needle = pattern.to_ascii_lowercase();
        Workload::ALL
            .into_iter()
            .filter(|w| w.name().contains(&needle))
            .collect()
    }

    /// Builds the workload's guest program for `params`.
    pub fn build(self, params: &WorkloadParams) -> Program {
        match self {
            Workload::Bzip2 => bzip2::build(params),
            Workload::Gcc => gcc::build(params),
            Workload::Gobmk => gobmk::build(params),
            Workload::Libquantum => libquantum::build(params),
            Workload::Astar => astar::build(params),
            Workload::H264ref => h264ref::build(params),
            Workload::Lbm => lbm::build(params),
            Workload::Namd => namd::build(params),
            Workload::Sjeng => sjeng::build(params),
            Workload::Soplex => soplex::build(params),
            Workload::Xalancbmk => xalancbmk::build(params),
            Workload::Hmmer => hmmer::build(params),
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The gobmk sub-inputs of the paper's Figures 7/8 (each SPEC gobmk run
/// uses a different game position; we reproduce that as `(name, seed)`
/// board-generation variants).
pub const GOBMK_INPUTS: [(&str, u64); 5] = [
    ("gobmk-capture", 0xCAB0_0001),
    ("gobmk-connect", 0xC044_EC70),
    ("gobmk-connect_rot", 0xC044_0707),
    ("gobmk-cutstone", 0xC075_703E),
    ("gobmk-dniwog", 0x0D41_060D),
];

#[cfg(test)]
mod name_lookup_tests {
    use super::*;

    #[test]
    fn from_name_round_trips_every_workload() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert_eq!(Workload::from_name(&w.name().to_uppercase()), Some(w));
        }
        assert_eq!(Workload::from_name("perlbench"), None);
        assert_eq!(Workload::from_name(""), None);
    }

    #[test]
    fn matching_is_substring_and_case_insensitive() {
        assert_eq!(Workload::matching("xalanc"), vec![Workload::Xalancbmk]);
        assert_eq!(Workload::matching("GCC"), vec![Workload::Gcc]);
        assert_eq!(Workload::matching("").len(), Workload::ALL.len());
        assert!(Workload::matching("zzz").is_empty());
    }
}
