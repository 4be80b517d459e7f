//! Cycle-level memory hierarchy for the REST simulator.
//!
//! Implements the memory side of the paper's Table II configuration:
//! split 64 kB 8-way L1 caches (2-cycle), a unified 2 MB 16-way L2
//! (20-cycle), MSHRs with miss merging, write buffers, and a banked
//! DDR3-800 DRAM model with open-row tracking — plus the entirety of the
//! paper's hardware contribution:
//!
//! * per-L1-D-line **token bits** (1, 2 or 4 per line depending on token
//!   width),
//! * the **token detector** in the L1-D fill path, which compares each
//!   incoming line against the token-configuration register and sets the
//!   corresponding token bit(s),
//! * `arm`/`disarm` handling at the cache (arm sets the bit without
//!   writing the 64 B value; the value is materialised lazily when the
//!   line is evicted),
//! * token-access detection for regular loads/stores, returning the
//!   [`rest_core::RestExceptionKind`] mandated by Table I,
//! * critical-word-first interaction with debug mode (a load whose
//!   delivered word partially matches the token is held until the full
//!   line has been checked).
//!
//! The hierarchy is *timing-directed*: tags, LRU state, MSHR and bank
//! occupancy are tracked cycle-accurately, while data values live in the
//! functional [`rest_isa::GuestMemory`]-style memory owned by the
//! emulator. The token detector therefore compares real line bytes,
//! making detection genuinely content-based as in the paper.

#![forbid(unsafe_code)]

mod blocks;
mod cache;
mod config;
mod dram;
mod hierarchy;
mod mshr;
mod stats;
mod wbuf;

pub use blocks::BlockTable;
pub use cache::{Cache, EvictedLine};
pub use config::{CacheConfig, DramConfig, MemConfig};
pub use dram::Dram;
pub use hierarchy::{DataOutcome, Hierarchy, LineReader, ServedBy};
pub use mshr::MshrFile;
pub use stats::MemStats;
pub use wbuf::WriteBuffer;
