//! Seeded generator of randomized-but-well-formed guest programs.
//!
//! Programs are generated as allocator traces ([`TraceOp`] lists) and
//! lowered to guest assembly afterwards; the trace is the unit the
//! minimizer shrinks and the regression corpus stores. Every case
//! carries a [`GroundTruth`] label: clean, a bug REST must detect, or a
//! bug REST is known to miss (padding-gap reads, uninitialized reads of
//! zeroed fresh chunks, arm leaks that never trap). The oracle layer
//! judges observed behaviour against this label.
//!
//! Generation is driven by a single [`FuzzRng`] stream, so the case
//! sequence for a seed is total-ordered and identical on every run.

use crate::rng::FuzzRng;
use rest_isa::{EcallNum, MemSize, Program, ProgramBuilder, Reg};

/// REST token granule in bytes; allocations are padded up to this and
/// flanked by armed redzones of the same granularity.
pub const GRANULE: u64 = 64;

/// Slot registers: generated programs keep at most four live heap
/// pointers, one per callee-saved register.
pub const SLOT_REGS: [Reg; 4] = [Reg::S2, Reg::S3, Reg::S4, Reg::S5];

/// Benign ops use slots 0..3; slot 3 is reserved for bug injection so
/// ground truth never depends on the random benign prefix.
pub const BUG_SLOT: usize = 3;

/// Largest generated allocation. Kept under 256 so the allocator's
/// size-scaled redzone formula always yields the minimum 64-byte
/// redzone, making injected out-of-bounds distances exact.
const MAX_SIZE: u64 = 240;

/// An injected bug class with known ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BugKind {
    /// Load from an armed redzone granule (left or right of a live chunk).
    OobRead,
    /// Store into an armed redzone granule.
    OobWrite,
    /// Load through a freed (quarantined, still-armed) chunk.
    UseAfterFree,
    /// Second `free` of the same chunk.
    DoubleFree,
    /// In-bounds load of bytes never written; REST's fresh chunks are
    /// zeroed, so the read silently returns 0.
    UninitRead,
    /// Guest arms a live chunk's first granule and never disarms or
    /// touches it again; statically flagged, dynamically silent.
    ArmImbalance,
    /// Read from the unarmed padding gap `[size, round_up(size, 64))`.
    PaddingGap,
}

impl BugKind {
    /// All injectable bug kinds, in a fixed order.
    pub const ALL: [BugKind; 7] = [
        BugKind::OobRead,
        BugKind::OobWrite,
        BugKind::UseAfterFree,
        BugKind::DoubleFree,
        BugKind::UninitRead,
        BugKind::ArmImbalance,
        BugKind::PaddingGap,
    ];

    /// Stable kebab-case name used in signatures and reports.
    pub fn name(self) -> &'static str {
        match self {
            BugKind::OobRead => "oob-read",
            BugKind::OobWrite => "oob-write",
            BugKind::UseAfterFree => "use-after-free",
            BugKind::DoubleFree => "double-free",
            BugKind::UninitRead => "uninit-read",
            BugKind::ArmImbalance => "arm-imbalance",
            BugKind::PaddingGap => "padding-gap",
        }
    }
}

/// What the generator knows the case contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroundTruth {
    /// No injected bug; every access is in bounds and initialized.
    Clean,
    /// Injected bug that rest-secure-full must detect at runtime.
    Detect(BugKind),
    /// Injected bug REST is known to miss at runtime (fail-open by
    /// design); the static verifier may still flag it.
    Miss(BugKind),
}

impl GroundTruth {
    /// The injected bug, if any.
    pub fn bug(self) -> Option<BugKind> {
        match self {
            GroundTruth::Clean => None,
            GroundTruth::Detect(b) | GroundTruth::Miss(b) => Some(b),
        }
    }

    /// Stable name: `clean`, or the bug name.
    pub fn name(self) -> &'static str {
        self.bug().map_or("clean", BugKind::name)
    }
}

/// One step of an allocator trace; the generated IR a case is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceOp {
    /// `slot = malloc(size)`.
    Malloc { slot: usize, size: u64 },
    /// `*(slot + off) = val` with an access of `width` bytes.
    Store { slot: usize, off: i64, width: u8, val: u8 },
    /// Load `width` bytes at `slot + off`; when `emit`, the low byte is
    /// appended to program output (makes silent wrong values visible).
    Load { slot: usize, off: i64, width: u8, emit: bool },
    /// Byte-sum the first `len` bytes of the slot and emit the low 7
    /// bits — a bounded loop, exercising derived-pointer accesses.
    Hash { slot: usize, len: u64 },
    /// `free(slot)`.
    Free { slot: usize },
    /// Guest-arm the granule at the slot's base pointer.
    Arm { slot: usize },
}

impl TraceOp {
    /// One-line textual form used in `.trace` sidecar files.
    pub fn line(&self) -> String {
        match *self {
            TraceOp::Malloc { slot, size } => format!("malloc slot={slot} size={size}"),
            TraceOp::Store { slot, off, width, val } => {
                format!("store slot={slot} off={off} width={width} val={val}")
            }
            TraceOp::Load { slot, off, width, emit } => {
                format!("load slot={slot} off={off} width={width} emit={}", emit as u8)
            }
            TraceOp::Hash { slot, len } => format!("hash slot={slot} len={len}"),
            TraceOp::Free { slot } => format!("free slot={slot}"),
            TraceOp::Arm { slot } => format!("arm slot={slot}"),
        }
    }

    /// The slot this op works on ([`BUG_SLOT`] iff the op belongs to an
    /// injected bug).
    pub fn slot(&self) -> usize {
        match *self {
            TraceOp::Malloc { slot, .. }
            | TraceOp::Store { slot, .. }
            | TraceOp::Load { slot, .. }
            | TraceOp::Hash { slot, .. }
            | TraceOp::Free { slot }
            | TraceOp::Arm { slot } => slot,
        }
    }
}

/// A generated case: trace ops plus the ground-truth label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// Position in the seed's case stream.
    pub index: u64,
    /// The allocator trace; lowered to assembly by [`lower`].
    pub ops: Vec<TraceOp>,
    /// What the generator injected.
    pub truth: GroundTruth,
}

fn round_up_granule(size: u64) -> u64 {
    size.div_ceil(GRANULE) * GRANULE
}

const WIDTHS: [u8; 4] = [1, 2, 4, 8];

fn mem_size(width: u8) -> MemSize {
    match width {
        1 => MemSize::B1,
        2 => MemSize::B2,
        4 => MemSize::B4,
        _ => MemSize::B8,
    }
}

/// Live benign slot state: allocation size and initialized prefix.
#[derive(Clone, Copy)]
struct Slot {
    size: u64,
    written: u64,
}

/// The deterministic case stream for one seed: all randomness comes
/// from a single [`FuzzRng`].
#[derive(Debug, Clone)]
pub struct CaseStream {
    rng: FuzzRng,
    next_index: u64,
}

impl CaseStream {
    /// A fresh stream for `seed`, positioned before case 0.
    pub fn new(seed: u64) -> CaseStream {
        CaseStream {
            rng: FuzzRng::new(seed),
            next_index: 0,
        }
    }

    /// Generates the next case in the stream.
    pub fn next_case(&mut self) -> Case {
        let index = self.next_index;
        self.next_index += 1;
        let rng = &mut self.rng;
        let mut ops = Vec::new();
        let mut slots: [Option<Slot>; BUG_SLOT] = [None; BUG_SLOT];

        let benign = rng.range(3, 9);
        for _ in 0..benign {
            push_benign_op(rng, &mut ops, &mut slots);
        }

        let truth = if rng.chance(1, 4) {
            GroundTruth::Clean
        } else {
            inject_bug(rng, &mut ops)
        };
        Case { index, ops, truth }
    }
}

/// Appends one well-formed benign op, maintaining slot invariants
/// (loads/hashes only touch the initialized prefix, accesses stay in
/// bounds).
fn push_benign_op(rng: &mut FuzzRng, ops: &mut Vec<TraceOp>, slots: &mut [Option<Slot>; BUG_SLOT]) {
    // Weighted candidate kinds, filtered by current slot state.
    // 0 = malloc, 1 = store, 2 = load, 3 = hash, 4 = free.
    let any_free = slots.iter().any(|s| s.is_none());
    let any_live = slots.iter().any(|s| s.is_some());
    let any_written = slots.iter().flatten().any(|s| s.written > 0);
    let mut kinds: Vec<u8> = Vec::new();
    if any_free {
        kinds.extend([0, 0]);
    }
    if any_live {
        kinds.extend([1, 1, 1, 4]);
    }
    if any_written {
        kinds.extend([2, 2, 3]);
    }
    let kind = *rng.pick(&kinds);

    let pick_slot = |rng: &mut FuzzRng, want: fn(&Slot) -> bool, slots: &[Option<Slot>; BUG_SLOT]| {
        let live: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some_and(|s| want(&s)))
            .map(|(i, _)| i)
            .collect();
        *rng.pick(&live)
    };

    match kind {
        0 => {
            let free: Vec<usize> = slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_none())
                .map(|(i, _)| i)
                .collect();
            let slot = *rng.pick(&free);
            let size = rng.range(1, MAX_SIZE);
            slots[slot] = Some(Slot { size, written: 0 });
            ops.push(TraceOp::Malloc { slot, size });
        }
        1 => {
            let slot = pick_slot(rng, |_| true, slots);
            let s = slots[slot].as_mut().unwrap();
            let widths: Vec<u8> = WIDTHS.iter().copied().filter(|&w| u64::from(w) <= s.size).collect();
            let width = *rng.pick(&widths);
            let off = rng.range(0, s.written.min(s.size - u64::from(width)));
            let val = rng.range(0, 255) as u8;
            s.written = s.written.max(off + u64::from(width));
            ops.push(TraceOp::Store { slot, off: off as i64, width, val });
        }
        2 => {
            let slot = pick_slot(rng, |s| s.written > 0, slots);
            let s = slots[slot].unwrap();
            let widths: Vec<u8> = WIDTHS.iter().copied().filter(|&w| u64::from(w) <= s.written).collect();
            let width = *rng.pick(&widths);
            let off = rng.range(0, s.written - u64::from(width));
            let emit = rng.chance(1, 2);
            ops.push(TraceOp::Load { slot, off: off as i64, width, emit });
        }
        3 => {
            let slot = pick_slot(rng, |s| s.written > 0, slots);
            let s = slots[slot].unwrap();
            let len = rng.range(1, s.written);
            ops.push(TraceOp::Hash { slot, len });
        }
        _ => {
            let slot = pick_slot(rng, |_| true, slots);
            slots[slot] = None;
            ops.push(TraceOp::Free { slot });
        }
    }
}

/// Appends a bug of a random kind on the reserved bug slot and returns
/// the ground-truth label. The bug allocates its own chunk, so the
/// injected condition is independent of the benign prefix.
fn inject_bug(rng: &mut FuzzRng, ops: &mut Vec<TraceOp>) -> GroundTruth {
    let kind = *rng.pick(&BugKind::ALL);
    let slot = BUG_SLOT;
    match kind {
        BugKind::OobRead | BugKind::OobWrite => {
            let size = rng.range(1, MAX_SIZE);
            let user_pad = round_up_granule(size);
            let width = *rng.pick(&WIDTHS);
            let w = u64::from(width);
            // Whole access inside one armed redzone granule: the right
            // redzone [user_pad, user_pad+64) or the left [-64, 0).
            let off = if rng.chance(1, 2) {
                (user_pad + rng.range(0, GRANULE - w)) as i64
            } else {
                -(rng.range(w, GRANULE) as i64)
            };
            ops.push(TraceOp::Malloc { slot, size });
            if kind == BugKind::OobRead {
                ops.push(TraceOp::Load { slot, off, width, emit: false });
            } else {
                let val = rng.range(0, 255) as u8;
                ops.push(TraceOp::Store { slot, off, width, val });
            }
            GroundTruth::Detect(kind)
        }
        BugKind::UseAfterFree => {
            let size = rng.range(1, MAX_SIZE);
            let widths: Vec<u8> = WIDTHS.iter().copied().filter(|&w| u64::from(w) <= size).collect();
            let width = *rng.pick(&widths);
            let off = rng.range(0, size - u64::from(width)) as i64;
            ops.push(TraceOp::Malloc { slot, size });
            ops.push(TraceOp::Free { slot });
            ops.push(TraceOp::Load { slot, off, width, emit: false });
            GroundTruth::Detect(kind)
        }
        BugKind::DoubleFree => {
            let size = rng.range(1, MAX_SIZE);
            ops.push(TraceOp::Malloc { slot, size });
            ops.push(TraceOp::Free { slot });
            ops.push(TraceOp::Free { slot });
            GroundTruth::Detect(kind)
        }
        BugKind::UninitRead => {
            let size = rng.range(1, MAX_SIZE);
            let widths: Vec<u8> = WIDTHS.iter().copied().filter(|&w| u64::from(w) <= size).collect();
            let width = *rng.pick(&widths);
            let off = rng.range(0, size - u64::from(width)) as i64;
            ops.push(TraceOp::Malloc { slot, size });
            ops.push(TraceOp::Load { slot, off, width, emit: true });
            GroundTruth::Miss(kind)
        }
        BugKind::ArmImbalance => {
            let size = rng.range(1, MAX_SIZE);
            ops.push(TraceOp::Malloc { slot, size });
            ops.push(TraceOp::Arm { slot });
            GroundTruth::Miss(kind)
        }
        BugKind::PaddingGap => {
            // Need a nonempty padding gap [size, round_up(size, 64)).
            let mut size = rng.range(1, MAX_SIZE - 1);
            if size.is_multiple_of(GRANULE) {
                size += 1;
            }
            let user_pad = round_up_granule(size);
            let off = rng.range(size, user_pad - 1) as i64;
            ops.push(TraceOp::Malloc { slot, size });
            ops.push(TraceOp::Load { slot, off, width: 1, emit: true });
            GroundTruth::Miss(kind)
        }
    }
}

/// Lowers a case to a guest program.
///
/// Each trace op becomes a short, fixed instruction idiom; the malloc
/// size is materialised as a constant into `a0` immediately before the
/// ecall so restlint's site analysis recovers exact chunk layouts.
pub fn lower(case: &Case) -> Program {
    let mut p = ProgramBuilder::new();
    p.symbol("main");
    for op in &case.ops {
        match *op {
            TraceOp::Malloc { slot, size } => {
                p.li(Reg::A0, size as i64);
                p.ecall(EcallNum::Malloc);
                p.mv(SLOT_REGS[slot], Reg::A0);
            }
            TraceOp::Store { slot, off, width, val } => {
                p.li(Reg::T0, i64::from(val));
                p.store(Reg::T0, SLOT_REGS[slot], off, mem_size(width));
            }
            TraceOp::Load { slot, off, width, emit } => {
                p.load(Reg::T0, SLOT_REGS[slot], off, mem_size(width));
                if emit {
                    p.mv(Reg::A0, Reg::T0);
                    p.ecall(EcallNum::PutChar);
                }
            }
            TraceOp::Hash { slot, len } => {
                // sum = 0; cur = base; end = base + len;
                // while cur != end { sum += *cur; cur += 1 } ; put(sum & 0x7f)
                p.li(Reg::T1, 0);
                p.mv(Reg::T2, SLOT_REGS[slot]);
                p.mv(Reg::T3, SLOT_REGS[slot]);
                p.addi(Reg::T3, Reg::T3, len as i64);
                let done = p.new_label();
                let head = p.label_here();
                p.beq(Reg::T2, Reg::T3, done);
                p.load(Reg::T0, Reg::T2, 0, MemSize::B1);
                p.add(Reg::T1, Reg::T1, Reg::T0);
                p.addi(Reg::T2, Reg::T2, 1);
                p.j(head);
                p.bind(done);
                p.andi(Reg::T0, Reg::T1, 0x7f);
                p.mv(Reg::A0, Reg::T0);
                p.ecall(EcallNum::PutChar);
            }
            TraceOp::Free { slot } => {
                p.mv(Reg::A0, SLOT_REGS[slot]);
                p.ecall(EcallNum::Free);
            }
            TraceOp::Arm { slot } => {
                p.arm(SLOT_REGS[slot]);
            }
        }
    }
    p.li(Reg::A0, 0);
    p.ecall(EcallNum::Exit);
    p.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(seed: u64, n: usize) -> Vec<Case> {
        let mut s = CaseStream::new(seed);
        (0..n).map(|_| s.next_case()).collect()
    }

    #[test]
    fn same_seed_identical_stream() {
        assert_eq!(collect(0xF0CC_5EED, 64), collect(0xF0CC_5EED, 64));
        let a = collect(1, 32);
        let b = collect(2, 32);
        assert_ne!(a, b, "different seeds must give different streams");
    }

    #[test]
    fn injected_bugs_are_well_formed() {
        let mut stream = CaseStream::new(0xABCD);
        let mut seen_kinds = std::collections::BTreeSet::new();
        let mut seen_clean = false;
        for _ in 0..500 {
            let case = stream.next_case();
            match case.truth {
                GroundTruth::Clean => seen_clean = true,
                truth => {
                    let kind = truth.bug().unwrap();
                    seen_kinds.insert(kind);
                    // The bug always works on a dedicated tail allocation.
                    let size = case
                        .ops
                        .iter()
                        .rev()
                        .find_map(|op| match *op {
                            TraceOp::Malloc { slot: 3, size } => Some(size),
                            _ => None,
                        })
                        .expect("bug slot allocated");
                    let user_pad = round_up_granule(size);
                    match (kind, case.ops.last().unwrap()) {
                        (BugKind::OobRead, &TraceOp::Load { off, width, .. })
                        | (BugKind::OobWrite, &TraceOp::Store { off, width, .. }) => {
                            let w = i64::from(width);
                            let in_right = off >= user_pad as i64
                                && off + w <= (user_pad + GRANULE) as i64;
                            let in_left = off >= -(GRANULE as i64) && off + w <= 0;
                            assert!(in_right || in_left, "oob off {off} w {w} size {size}");
                        }
                        (BugKind::UseAfterFree, &TraceOp::Load { off, width, .. })
                        | (BugKind::UninitRead, &TraceOp::Load { off, width, .. }) => {
                            assert!(off >= 0 && off as u64 + u64::from(width) <= size);
                        }
                        (BugKind::DoubleFree, &TraceOp::Free { slot }) => assert_eq!(slot, 3),
                        (BugKind::ArmImbalance, &TraceOp::Arm { slot }) => assert_eq!(slot, 3),
                        (BugKind::PaddingGap, &TraceOp::Load { off, width, emit, .. }) => {
                            assert_ne!(size % GRANULE, 0);
                            assert!(emit && width == 1);
                            assert!(off as u64 >= size && (off as u64) < user_pad);
                        }
                        (k, op) => panic!("unexpected tail op {op:?} for {k:?}"),
                    }
                }
            }
        }
        assert!(seen_clean, "clean cases must occur");
        assert_eq!(seen_kinds.len(), BugKind::ALL.len(), "all bug kinds occur in 500 cases");
    }

    #[test]
    fn lowering_builds_programs() {
        let mut stream = CaseStream::new(7);
        for _ in 0..100 {
            let case = stream.next_case();
            let program = lower(&case);
            assert!(program.len() >= 2);
            // Assembly round-trips through the parser (regression files
            // are stored as .s text).
            let text = program.to_asm();
            let reparsed = rest_isa::parse_asm(&text).expect("asm round-trip");
            assert_eq!(reparsed.len(), program.len());
        }
    }
}
