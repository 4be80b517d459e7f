//! Golden test for the heap: one fixed `ecall` script under every
//! allocator configuration, pinned by a digest of what the runtime did.
//!
//! The digest covers the recorded micro-op stream (kind, address, size
//! — not the `Component` attribution), every `ecall` outcome, and the
//! final `AllocStats`. A refactor of the allocator that keeps the
//! simulated behaviour keeps every digest.

use rand::rngs::StdRng;
use rand::SeedableRng;

use rest_core::{Mode, MteMode, ProtectionBackend, Token};
use rest_isa::{EcallNum, GuestMemory};
use rest_runtime::{
    AllocStats, EcallOutcome, RtConfig, RtEnv, Runtime, TrafficRecorder, HEAP_BASE,
};

/// FNV-1a over 64-bit words and byte strings.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

struct Script {
    mem: GuestMemory,
    rec: TrafficRecorder,
    backend: Box<dyn ProtectionBackend>,
    token: Token,
    cfg: RtConfig,
    rt: Runtime,
    digest: Digest,
}

impl Script {
    fn new(cfg: RtConfig) -> Script {
        let mut rng = StdRng::seed_from_u64(2018);
        Script {
            mem: GuestMemory::new(),
            rec: TrafficRecorder::new(),
            backend: cfg.build_backend(2018),
            token: Token::generate(cfg.token_width, &mut rng),
            rt: Runtime::new(cfg.clone()),
            cfg,
            digest: Digest::new(),
        }
    }

    /// Runs one `ecall` and folds its outcome and recorded stream into
    /// the digest; returns `a0` (0 for a violation).
    fn call(&mut self, num: EcallNum, args: [u64; 6]) -> u64 {
        let mut env = RtEnv {
            mem: &mut self.mem,
            rec: &mut self.rec,
            backend: self.backend.as_mut(),
            token: &self.token,
            check_backend: self.cfg.checks_in_backend(),
            check_shadow: false,
            perfect_hw: self.cfg.perfect_hw,
            naive_wide_arm: self.cfg.naive_wide_arm,
            guest_pc: 0x1_0000,
            sites: None,
        };
        let out = self.rt.ecall(num, args, &mut env);
        self.digest.bytes(format!("{out:?}").as_bytes());
        for op in self.rec.drain() {
            self.digest.bytes(format!("{:?}", op.kind).as_bytes());
            if let Some(m) = op.mem {
                self.digest.word(m.addr);
                self.digest.word(m.size);
            }
        }
        match out {
            EcallOutcome::Done(v) => v,
            _ => 0,
        }
    }

    fn malloc(&mut self, size: u64) -> u64 {
        self.call(EcallNum::Malloc, [size, 0, 0, 0, 0, 0])
    }

    fn free(&mut self, ptr: u64) {
        self.call(EcallNum::Free, [ptr, 0, 0, 0, 0, 0]);
    }

    /// The fixed script: mixed sizes, frees, a double free, realloc,
    /// calloc, a wild free, and enough frees under a small quarantine
    /// that chunks are evicted and reused.
    fn run(mut self) -> (u64, AllocStats) {
        let mut live: Vec<u64> = [1, 13, 40, 64, 100, 256, 1000, 4096, 24, 64]
            .into_iter()
            .map(|size| self.malloc(size))
            .collect();
        self.free(live[1]);
        self.free(live[3]);
        self.free(live[3]);
        self.free(0);
        let grown = self.call(EcallNum::Realloc, [live[4], 300, 0, 0, 0, 0]);
        let fresh = self.call(EcallNum::Realloc, [0, 24, 0, 0, 0, 0]);
        let zeroed = self.call(EcallNum::Calloc, [4, 24, 0, 0, 0, 0]);
        let gone = [live[1], live[3], live[4]];
        live.retain(|p| !gone.contains(p));
        live.extend([grown, fresh, zeroed]);
        for p in live {
            self.free(p);
        }
        let again: Vec<u64> = [64, 13, 256, 100, 64]
            .into_iter()
            .map(|size| self.malloc(size))
            .collect();
        self.free(HEAP_BASE + 0x10_0000);
        for p in again {
            self.free(p);
        }
        let s = *self.rt.allocator().stats();
        for w in [
            s.allocs,
            s.frees,
            s.bytes_requested,
            s.live_bytes,
            s.peak_live_bytes,
            s.quarantine_bytes,
            s.quarantine_evictions,
            s.bad_frees,
            s.reuses,
        ] {
            self.digest.word(w);
        }
        (self.digest.0, s)
    }
}

#[test]
fn every_allocator_replays_the_golden_script() {
    let q = 1024;
    let cases = [
        ("plain", RtConfig::plain(), 0xc373191e3c52979c),
        (
            "asan",
            RtConfig::asan().with_quarantine(q),
            0xe5bfa1c7896218bb,
        ),
        (
            "rest",
            RtConfig::rest(Mode::Secure, true).with_quarantine(q),
            0xe048d1a7ca9648dc,
        ),
        (
            "rest-sprinkle",
            RtConfig::rest(Mode::Secure, true)
                .with_quarantine(q)
                .with_sprinkle(),
            0xeb4b07e315423592,
        ),
        (
            "rest-fast-pool",
            RtConfig::rest(Mode::Secure, true)
                .with_quarantine(q)
                .with_fast_pool(),
            0x9cc5c9850d3ca625,
        ),
        ("mte-sync", RtConfig::mte(MteMode::Sync), 0xe846da556f1e8820),
        ("pa", RtConfig::pa(), 0x94b48f5897fc8310),
    ];
    let mut got = Vec::new();
    for (name, cfg, _) in &cases {
        let (digest, s) = Script::new(cfg.clone()).run();
        // The script reaches reuse in every scheme, and every hardened
        // scheme catches its double free; the quarantined ones evict.
        assert!(s.reuses > 0, "{name}: {s:?}");
        assert_eq!(s.bad_frees > 0, *name != "plain", "{name}: {s:?}");
        assert_eq!(
            s.quarantine_evictions > 0,
            cfg.scheme.name() == "asan" || cfg.scheme.name() == "rest",
            "{name}: {s:?}"
        );
        got.push((*name, digest));
    }
    let want: Vec<(&str, u64)> = cases.iter().map(|(name, _, d)| (*name, *d)).collect();
    assert_eq!(got, want, "digests: {got:#x?}");
}
