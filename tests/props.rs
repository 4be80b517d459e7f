//! Property-based tests over the core data structures and the
//! emulator/allocator invariants.

#![cfg(feature = "proptest")]

use proptest::prelude::*;

use rest::core::{ArmedSet, RestBackend, Token, TokenWidth};
use rest::mem::{Cache, CacheConfig, EvictedLine, MemConfig};
use rest::prelude::*;
use rest::runtime::{Allocator, RestAllocator, RtConfig, TrafficRecorder};
use rest_isa::GuestMemory;

fn width_strategy() -> impl Strategy<Value = TokenWidth> {
    prop_oneof![
        Just(TokenWidth::B16),
        Just(TokenWidth::B32),
        Just(TokenWidth::B64)
    ]
}

proptest! {
    /// The architectural armed-set and the content-based view (token
    /// bytes in memory) agree for any arm/disarm sequence: a location
    /// overlaps an armed slot iff its line content holds the token at an
    /// aligned offset.
    #[test]
    fn armed_set_matches_content_based_detection(
        width in width_strategy(),
        ops in prop::collection::vec((0u64..64, any::<bool>()), 1..60),
        probe in 0u64..4096,
    ) {
        let mut rng = rand::rngs::mock::StepRng::new(0x1234_5678_9abc_def0, 0x9e37_79b9_7f4a_7c15);
        let token = Token::generate(width, &mut rng);
        let mut armed = ArmedSet::new(width);
        let mut mem = GuestMemory::new();
        let w = width.bytes();
        for (slot, do_arm) in ops {
            let addr = 0x1000 + slot * w;
            if do_arm {
                armed.arm(addr).unwrap();
                mem.write_bytes(addr, token.bytes());
            } else if armed.is_armed(addr) {
                armed.disarm(addr).unwrap();
                mem.fill(addr, w, 0);
            }
        }
        // Content view of the probe address's line.
        let addr = 0x1000 + probe;
        let line_base = addr & !63;
        let mut line = [0u8; 64];
        mem.read_bytes(line_base, &mut line);
        let offsets = token.match_offsets_in_line(&line);
        let content_armed = offsets
            .iter()
            .any(|&off| {
                let slot_base = line_base + off as u64;
                addr >= slot_base && addr < slot_base + w
            });
        prop_assert_eq!(armed.overlaps(addr, 1), content_armed);
    }

    /// The REST allocator never panics, never loses track of a live
    /// pointer, and keeps every live allocation bracketed by armed
    /// redzones, for any interleaving of mallocs and frees.
    #[test]
    fn rest_allocator_invariants(
        actions in prop::collection::vec((1u64..512, any::<bool>()), 1..80),
        quarantine in 256u64..65536,
    ) {
        let mut rng = rand::rngs::mock::StepRng::new(7, 0x9e37_79b9);
        let token = Token::generate(TokenWidth::B64, &mut rng);
        let mut mem = GuestMemory::new();
        let mut rec = TrafficRecorder::new();
        let mut backend = RestBackend::new(TokenWidth::B64, Mode::Secure);
        let mut alloc = RestAllocator::new(quarantine, 64);
        let mut live: Vec<(u64, u64)> = Vec::new();

        for (size, do_free) in actions {
            let mut env = rest::runtime::RtEnv {
                mem: &mut mem,
                rec: &mut rec,
                backend: &mut backend,
                token: &token,
                check_backend: true,
                check_shadow: false,
                perfect_hw: false,
                naive_wide_arm: false,
                guest_pc: 0,
                sites: None,
            };
            if do_free && !live.is_empty() {
                let (ptr, _) = live.swap_remove((size as usize) % live.len());
                alloc.free(&mut env, ptr).unwrap();
            } else {
                let ptr = alloc.malloc(&mut env, size).unwrap();
                prop_assert!(ptr != 0);
                prop_assert_eq!(ptr % 64, 0, "user pointers are token-aligned");
                live.push((ptr, size));
            }
        }
        // Every live allocation: interior accessible, bounds armed.
        let armed = backend.armed();
        for &(ptr, size) in &live {
            prop_assert!(!armed.overlaps(ptr, size), "live data must not be armed");
            let pad = size.div_ceil(64) * 64;
            prop_assert!(armed.is_armed(ptr + pad), "right redzone must be armed");
            prop_assert!(armed.is_armed(ptr - 64), "left redzone must be armed");
            prop_assert_eq!(alloc.usable_size(ptr), Some(size));
        }
    }

    /// Random straight-line ALU programs: the emulator's register state
    /// matches a direct host-side interpretation.
    #[test]
    fn emulator_matches_reference_interpreter(
        seed in any::<u64>(),
        ops in prop::collection::vec((0u8..6, 1u8..8, 1u8..8, -100i64..100), 1..40),
    ) {
        let mut p = ProgramBuilder::new();
        let mut reference = [0u64; 8];
        // Seed registers x1..x7 deterministically.
        for r in 1u8..8 {
            let v = seed.wrapping_mul(r as u64 + 1);
            p.li(Reg::new(r), v as i64);
            reference[r as usize] = v;
        }
        for (op, dst, src, imm) in ops {
            let d = Reg::new(dst);
            let s = Reg::new(src);
            let a = reference[src as usize];
            let b = imm as u64;
            let (inst_op, val) = match op {
                0 => (rest::isa::AluOp::Add, a.wrapping_add(b)),
                1 => (rest::isa::AluOp::Xor, a ^ b),
                2 => (rest::isa::AluOp::And, a & b),
                3 => (rest::isa::AluOp::Or, a | b),
                4 => (rest::isa::AluOp::Mul, a.wrapping_mul(b)),
                _ => (rest::isa::AluOp::Sub, a.wrapping_sub(b)),
            };
            p.push(Inst::AluImm { op: inst_op, dst: d, src: s, imm });
            reference[dst as usize] = val;
        }
        p.halt();
        let cfg = SimConfig::isca2018(RtConfig::plain());
        let mut emu = rest::cpu::Emulator::new(p.build(), &cfg);
        emu.run_functional();
        for r in 1u8..8 {
            prop_assert_eq!(
                emu.reg_value(Reg::new(r)),
                reference[r as usize],
                "register x{} diverged", r
            );
        }
    }

    /// Timing sanity for arbitrary small programs: cycles are positive,
    /// at least uops/issue-width, and deterministic.
    #[test]
    fn pipeline_timing_bounds(
        ops in prop::collection::vec(0u8..4, 1..120),
    ) {
        let mut p = ProgramBuilder::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                0 => { p.addi(Reg::T0, Reg::T0, 1); }
                1 => { p.mul(Reg::T1, Reg::T0, Reg::T0); }
                2 => { p.sd(Reg::T0, Reg::GP, (i as i64 % 64) * 8); }
                _ => { p.ld(Reg::T2, Reg::GP, (i as i64 % 64) * 8); }
            }
        }
        p.halt();
        let prog = p.build();
        let r1 = rest::simulate(prog.clone(), RtConfig::plain());
        let r2 = rest::simulate(prog, RtConfig::plain());
        prop_assert_eq!(r1.cycles(), r2.cycles());
        prop_assert!(r1.cycles() > 0);
        // 8-wide machine: cannot beat uops/8 per cycle (+ pipeline fill).
        prop_assert!(r1.cycles() as f64 >= r1.core.uops as f64 / 8.0);
    }
}

/// One resident line of [`NaiveCache`].
#[derive(Debug, Clone, Copy)]
struct NaiveLine {
    tag: u64,
    stamp: u64,
    dirty: bool,
    mask: u8,
}

/// Reference model for [`Cache`]: per set, a `Vec` of resident lines
/// with true LRU, indexed by plain division.
struct NaiveCache {
    sets: Vec<Vec<NaiveLine>>,
    assoc: usize,
    line_bytes: u64,
    clock: u64,
}

impl NaiveCache {
    fn new(cfg: &CacheConfig) -> NaiveCache {
        let sets = (cfg.size_bytes / (cfg.assoc as u64 * cfg.line_bytes)) as usize;
        NaiveCache {
            sets: vec![Vec::new(); sets],
            assoc: cfg.assoc,
            line_bytes: cfg.line_bytes,
            clock: 0,
        }
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.line_bytes;
        let n = self.sets.len() as u64;
        ((line % n) as usize, line / n)
    }

    fn line(&mut self, addr: u64) -> Option<&mut NaiveLine> {
        let (set, tag) = self.set_and_tag(addr);
        self.sets[set].iter_mut().find(|l| l.tag == tag)
    }

    fn lookup(&mut self, addr: u64, write: bool) -> Option<u8> {
        self.clock += 1;
        let clock = self.clock;
        self.line(addr).map(|l| {
            l.stamp = clock;
            l.dirty |= write;
            l.mask
        })
    }

    fn fill(&mut self, addr: u64, dirty: bool, mask: u8) -> Option<EvictedLine> {
        self.clock += 1;
        let clock = self.clock;
        if let Some(l) = self.line(addr) {
            l.stamp = clock;
            l.dirty |= dirty;
            l.mask |= mask;
            return None;
        }
        let (set, tag) = self.set_and_tag(addr);
        let (n, line_bytes, assoc) = (self.sets.len() as u64, self.line_bytes, self.assoc);
        let lines = &mut self.sets[set];
        let evicted = (lines.len() == assoc).then(|| {
            let lru = (0..lines.len()).min_by_key(|&i| lines[i].stamp).unwrap();
            let old = lines.remove(lru);
            EvictedLine {
                addr: (old.tag * n + set as u64) * line_bytes,
                dirty: old.dirty,
                token_mask: old.mask,
            }
        });
        lines.push(NaiveLine {
            tag,
            stamp: clock,
            dirty,
            mask,
        });
        evicted
    }

    fn invalidate(&mut self, addr: u64) -> Option<EvictedLine> {
        let (set, tag) = self.set_and_tag(addr);
        let i = self.sets[set].iter().position(|l| l.tag == tag)?;
        let old = self.sets[set].remove(i);
        Some(EvictedLine {
            addr: addr / self.line_bytes * self.line_bytes,
            dirty: old.dirty,
            token_mask: old.mask,
        })
    }

    fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

proptest! {
    /// The flat, shift-and-mask [`Cache`] agrees with a naive per-set
    /// model on every operation: hits and their token bits, evicted lines (address, dirty
    /// bit, token mask), token bits and occupancy, for the tiny test
    /// geometries and the paper's L1-D and L2.
    #[test]
    fn cache_matches_naive_model(
        geometry in 0usize..4,
        ops in prop::collection::vec(
            (0u8..7, 0u64..4, 0u64..24, 0u64..64, any::<bool>(), 0u8..16),
            1..300,
        ),
    ) {
        let cfg = match geometry {
            0 => MemConfig::tiny().l1d,
            1 => MemConfig::tiny().l2,
            2 => CacheConfig::isca2018_l1d(),
            _ => CacheConfig::isca2018_l2(),
        };
        let mut cache = Cache::new(cfg.clone(), "C");
        let mut model = NaiveCache::new(&cfg);
        let sets = model.sets.len() as u64;
        for (op, set_sel, tag_sel, offset, flag, mask) in ops {
            // A handful of sets (first, second, middle, last), more
            // tags than ways, and some tags in the high address bits.
            let set = [0, 1, sets / 2, sets - 1][set_sel as usize];
            let tag = if tag_sel >= 20 { tag_sel << 40 } else { tag_sel };
            let addr = (tag * sets + set) * cfg.line_bytes + offset;
            let resident = model.line(addr).is_some();
            match op {
                0 => prop_assert_eq!(cache.lookup(addr, flag), model.lookup(addr, flag)),
                1 => prop_assert_eq!(cache.fill(addr, flag, mask), model.fill(addr, flag, mask)),
                2 => prop_assert_eq!(cache.invalidate(addr), model.invalidate(addr)),
                3 if resident => {
                    cache.set_token_bits(addr, mask);
                    model.line(addr).unwrap().mask |= mask;
                }
                4 if resident => {
                    cache.clear_token_bit(addr, 16);
                    let l = model.line(addr).unwrap();
                    l.mask &= !(1 << (offset / 16));
                    l.dirty = true;
                }
                5 if resident => {
                    cache.mark_dirty(addr);
                    model.line(addr).unwrap().dirty = true;
                }
                _ => {}
            }
            prop_assert_eq!(cache.probe(addr), model.line(addr).is_some());
            let model_mask = model.line(addr).map(|l| l.mask);
            prop_assert_eq!(cache.token_mask(addr), model_mask);
            prop_assert_eq!(
                cache.token_bit_covering(addr, 16),
                model_mask.is_some_and(|m| m & (1 << (offset / 16)) != 0)
            );
            prop_assert_eq!(cache.resident_lines(), model.resident_lines());
        }
        // Drain: invalidating every line the model holds reports the
        // same dirty bits and token masks.
        let held: Vec<u64> = model
            .sets
            .iter()
            .enumerate()
            .flat_map(|(s, lines)| lines.iter().map(move |l| (l.tag * sets + s as u64) * cfg.line_bytes))
            .collect();
        for addr in held {
            prop_assert_eq!(cache.invalidate(addr), model.invalidate(addr));
        }
        prop_assert_eq!(cache.resident_lines(), 0);
    }
}

#[test]
fn token_false_positive_probability_is_negligible() {
    // Deterministic sampling stand-in for the 2^-512 claim: no random
    // 64-byte line ever matches a random token.
    let mut rng = rand::rngs::mock::StepRng::new(42, 0x2545_F491_4F6C_DD1D);
    let token = Token::generate(TokenWidth::B64, &mut rng);
    let mut line = [0u8; 64];
    let mut x = 0x1234_5678_u64;
    for _ in 0..100_000 {
        for chunk in line.chunks_mut(8) {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            chunk.copy_from_slice(&x.to_le_bytes());
        }
        assert!(!token.line_contains_token(&line));
    }
}
