//! Sound static check elision.
//!
//! REST (and ASan) pay a per-access cost for every checked load and
//! store. Many of those checks can never fire: the access provably stays
//! inside a live, never-freed allocation on every path, or an identical
//! covering check already executed at a dominating PC with nothing in
//! between that could have armed the memory. This pass proves such
//! facts on top of the `analysis` fixpoint and emits a
//! [`rest_core::ElisionMap`] the emulator consumes to skip the check
//! machinery at those PCs.
//!
//! # Soundness model
//!
//! A skipped check is sound iff the access can never touch token-filled
//! (armed) memory. Tokens enter the address space through exactly four
//! channels the static model tracks:
//!
//! 1. **guest `arm` instructions** — collected flow-insensitively into
//!    global arm sets (absolute addresses, per-site heap offsets,
//!    per-function frame offsets). One unresolvable `arm` anywhere
//!    disables elision for the whole program.
//! 2. **allocator redzones** — placed around every `malloc`-family
//!    chunk; staying strictly inside `[0, usable_size)` avoids them and
//!    the §V-C alignment padding.
//! 3. **quarantined frees** — freed chunks are token-filled. The pass
//!    uses the *monotone* may-freed set (a site ever freed anywhere is
//!    permanently suspect), not the flow-sensitive freed map, because a
//!    stale alias can dangle into a site that was freed and reallocated.
//! 4. **frame redzones** — armed at `sp`-relative offsets; an access
//!    whose whole extent stays inside the function's own frame and
//!    clear of its own frame arms cannot reach them (an ancestor's arms
//!    sit at strictly higher addresses, and a callee leaking an armed
//!    frame to its return is an `arm-balance` error that trips the
//!    global precondition).
//!
//! Two effects are *assumed* away and documented in `DESIGN.md`: a
//! guest store whose data happens to equal the runtime-seeded token
//! arms a line behind the model's back (probability ≈ 2⁻⁵¹²), and the
//! simulated stack never grows down into the heap arena (the emulator
//! layout keeps them > 700 MiB apart).
//!
//! Any finding at `Severity::Error` or above disables elision outright:
//! programs that already violate the ARM/DISARM contract (every in-tree
//! attack with a detectable bug) get an **empty** map, which is what the
//! attack-coverage differential gate machine-checks.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use rest_core::{ElideClass, ElisionMap};
use rest_isa::{Inst, Program, Reg};
use rest_obs::json::Json;
use rest_runtime::{HEAP_BASE, HEAP_SPAN, SHADOW_BASE, STACK_TOP, STATIC_BASE};

use crate::analysis::{AllocKind, Analyzer, Loc, Severity, State, VerifyResult, GRANULE};
use crate::cfg::{Cfg, Succ};
use crate::dom::DomTree;
use crate::domain::AbsVal;

/// Artifact schema identifier for serialized elision maps.
pub const ELIDE_SCHEMA: &str = "rest-elide/v1";

/// Largest `sp`-relative magnitude the frame-safety argument accepts.
/// Frames beyond 1 MiB would undermine the stack-region reasoning, so
/// any arm or access outside this window disables stack elision.
const FRAME_SANE: i64 = 1 << 20;

/// Which runtime checking scheme the elision map is produced for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElideScheme {
    /// REST token checks (content-detected on cache fill).
    Rest,
    /// ASan shadow-memory checks.
    Asan,
}

impl ElideScheme {
    /// Stable serialization name.
    pub fn name(self) -> &'static str {
        match self {
            ElideScheme::Rest => "rest",
            ElideScheme::Asan => "asan",
        }
    }
}

/// Everything the elision pass proved about one program.
#[derive(Debug, Clone)]
pub struct ElisionReport {
    /// PC → class for every elidable access.
    pub map: ElisionMap,
    /// Total load/store PCs in the program (the elision universe).
    pub access_pcs: usize,
    /// Accesses proven in-bounds of live memory on every path.
    pub must_be_safe: usize,
    /// Accesses covered by a dominating identical check.
    pub redundant: usize,
    /// Accesses that keep their runtime check.
    pub may_fault: usize,
    /// Whether the global preconditions held; `false` forces an empty
    /// map (the verifier found an error, or an arm was unresolvable).
    pub preconditions_ok: bool,
    /// Findings at `Severity::Error`+ that vetoed elision.
    pub blocking_findings: usize,
    /// The scheme the map targets.
    pub scheme: ElideScheme,
}

impl ElisionReport {
    /// Fraction of checks statically elided, in percent.
    pub fn elide_pct(&self) -> f64 {
        if self.access_pcs == 0 {
            0.0
        } else {
            100.0 * self.map.len() as f64 / self.access_pcs as f64
        }
    }

    /// Renders the `rest-elide/v1` artifact document.
    pub fn to_json(&self, program: &str) -> Json {
        let entries: Vec<Json> = self
            .map
            .iter()
            .map(|(pc, class)| {
                Json::obj(vec![
                    ("pc", Json::UInt(pc)),
                    ("class", Json::Str(class.name().to_string())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::Str(ELIDE_SCHEMA.to_string())),
            ("program", Json::Str(program.to_string())),
            ("scheme", Json::Str(self.scheme.name().to_string())),
            ("preconditions_ok", Json::Bool(self.preconditions_ok)),
            ("access_pcs", Json::UInt(self.access_pcs as u64)),
            ("elided", Json::UInt(self.map.len() as u64)),
            ("must_be_safe", Json::UInt(self.must_be_safe as u64)),
            ("redundant", Json::UInt(self.redundant as u64)),
            ("may_fault", Json::UInt(self.may_fault as u64)),
            ("entries", Json::Arr(entries)),
        ])
    }
}

/// Runs the verifier, then proves per-PC elision verdicts for `program`
/// under `scheme`. The returned map is empty whenever the soundness
/// preconditions fail.
pub fn elide_program(program: &Program, scheme: ElideScheme) -> ElisionReport {
    let mut an = Analyzer::new(program);
    an.keep_states = true;
    let result = an.execute();
    elide_with(&mut an, &result, scheme)
}

/// As [`elide_program`], reusing an analyzer that already ran with
/// `keep_states` set (avoids re-running the fixpoint when the caller
/// also wants the lint findings).
pub(crate) fn elide_with(
    an: &mut Analyzer<'_>,
    result: &VerifyResult,
    scheme: ElideScheme,
) -> ElisionReport {
    let access_pcs = an
        .program
        .instructions()
        .iter()
        .filter(|i| matches!(i, Inst::Load { .. } | Inst::Store { .. }))
        .count();
    let blocking = result
        .findings
        .iter()
        .filter(|f| f.severity >= Severity::Error)
        .count();

    let globals = Globals::collect(an, scheme);
    let preconditions_ok = blocking == 0 && !an.unknown_arm && globals.arms_sane;

    let mut report = ElisionReport {
        map: ElisionMap::new(),
        access_pcs,
        must_be_safe: 0,
        redundant: 0,
        may_fault: access_pcs,
        preconditions_ok,
        blocking_findings: blocking,
        scheme,
    };
    if !preconditions_ok {
        return report;
    }

    // Per-PC verdicts, merged across every function whose fixpoint can
    // reach the PC (blocks can be shared between recovered functions; a
    // PC is elided only if *every* owning context proves it, and takes
    // the weaker class when they disagree).
    let mut verdicts: BTreeMap<u64, Option<ElideClass>> = BTreeMap::new();
    let saved = std::mem::take(&mut an.saved_states);
    for (fi, states) in saved.iter().enumerate() {
        classify_function(an, fi, states, scheme, &globals, &mut verdicts);
    }

    for (pc, verdict) in verdicts {
        if let Some(class) = verdict {
            report.map.insert(pc, class);
        }
    }
    report.must_be_safe = report.map.count_of(ElideClass::MustBeSafe);
    report.redundant = report.map.count_of(ElideClass::Redundant);
    report.may_fault = access_pcs - report.map.len();
    report
}

// ---------------------------------------------------------------------
// Global token geography
// ---------------------------------------------------------------------

/// Flow-insensitive facts about where tokens can live, derived from the
/// analyzer's whole-program arm/free collections.
struct Globals {
    /// Some absolute-address arm's granule intersects the heap arena.
    abs_arm_in_heap: bool,
    /// Some absolute-address arm's granule intersects `[0, HEAP_BASE)`.
    abs_arm_below_heap: bool,
    /// Some `sbrk` site has a guest arm (its concrete static address is
    /// unknown, poisoning the whole sub-heap region).
    sbrk_guest_arm: bool,
    /// Any function arms a frame offset anywhere (blocks absolute
    /// stack-region elision: non-main frame addresses are unknown).
    any_sp_arm: bool,
    /// Every arm offset stayed inside its chunk / a sane frame window;
    /// a wild arm could land anywhere, so it disables elision globally.
    arms_sane: bool,
}

impl Globals {
    fn collect(an: &Analyzer<'_>, _scheme: ElideScheme) -> Globals {
        let heap_lo = HEAP_BASE as i64;
        let heap_hi = (HEAP_BASE + HEAP_SPAN) as i64;
        let g = GRANULE as i64;
        let abs_arm_in_heap = an
            .abs_arms
            .iter()
            .any(|&a| (a as i64) < heap_hi && a as i64 + g > heap_lo);
        let abs_arm_below_heap = an.abs_arms.iter().any(|&a| (a as i64) < heap_lo);
        let sbrk_guest_arm = an
            .heap_arm_sites
            .iter()
            .any(|&s| an.sites[s].kind == AllocKind::Sbrk);
        let any_sp_arm = an.sp_arms.values().any(|offs| !offs.is_empty());

        // Sanity: every frame arm within the 1 MiB window, and every
        // heap arm inside its own chunk's padded extent (a wild offset
        // could place a token in any region).
        let sp_sane = an.sp_arms.values().flatten().all(|&o| o.abs() < FRAME_SANE);
        let heap_sane = an
            .arm_records
            .iter()
            .filter_map(|&(_, loc, _)| match loc {
                Loc::Heap(site, o) => Some((site, o)),
                _ => None,
            })
            .all(|(site, o)| match an.sites[site].padded_size() {
                Some(p) => o >= 0 && o + g <= p as i64,
                None => false,
            });
        Globals {
            abs_arm_in_heap,
            abs_arm_below_heap,
            sbrk_guest_arm,
            any_sp_arm,
            arms_sane: sp_sane && heap_sane,
        }
    }
}

// ---------------------------------------------------------------------
// Per-function classification
// ---------------------------------------------------------------------

/// One available-check fact: bytes `[reg + lo, reg + hi_w)` were proven
/// token-free by the check at `gen` (PC, block), the base register has
/// not been redefined since, and nothing in between could have armed
/// memory. `gen` is `None` when paths disagree on the generating check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fact {
    lo: i64,
    hi_w: i64,
    gen: Option<(u64, usize)>,
}

type Facts = BTreeMap<usize, Fact>;

/// Optional per-access reporting callback for pass 3: receives each
/// non-`MustBeSafe` access PC and the generating check that covers it.
type CoverSink<'a> = Option<&'a mut dyn FnMut(u64, Option<(u64, usize)>)>;

/// Must-intersection of two fact maps (the availability meet).
fn meet(a: &Facts, b: &Facts) -> Facts {
    let mut out = Facts::new();
    for (reg, fa) in a {
        let Some(fb) = b.get(reg) else { continue };
        let lo = fa.lo.max(fb.lo);
        let hi_w = fa.hi_w.min(fb.hi_w);
        if lo >= hi_w {
            continue;
        }
        let gen = if fa.gen == fb.gen { fa.gen } else { None };
        out.insert(*reg, Fact { lo, hi_w, gen });
    }
    out
}

/// Classifies the accesses of function `fi` from its saved fixpoint
/// in-states (`states`, by member slot).
fn classify_function(
    an: &mut Analyzer<'_>,
    fi: usize,
    states: &[Option<State>],
    scheme: ElideScheme,
    globals: &Globals,
    verdicts: &mut BTreeMap<u64, Option<ElideClass>>,
) {
    let cfg = Rc::clone(&an.cfg);
    let func = &cfg.functions[fi];
    // The in-state of block `bi`, if it is a member the fixpoint reached.
    let state_of = |bi: usize| func.slot(bi).and_then(|s| states.get(s)?.as_ref());
    let Some(entry_bi) = cfg.block_at(func.entry) else {
        return;
    };
    if state_of(entry_bi).is_none() {
        return;
    }
    let is_main = fi == 0;
    let dom = DomTree::build(&cfg, func);
    let sp_arms: BTreeSet<i64> = an.sp_arms.get(&fi).cloned().unwrap_or_default();

    // Pass 1: per-PC MustBeSafe verdicts from the abstract states.
    let mut must_safe: BTreeMap<u64, bool> = BTreeMap::new();
    for (&bi, in_state) in func.blocks.iter().zip(states) {
        let Some(in_state) = in_state else { continue };
        let mut st = in_state.clone();
        let block = &cfg.blocks[bi];
        for pc in block.pcs() {
            // Invariant: `Cfg::build` makes blocks from `program`'s PCs.
            let inst = an.program.fetch(pc).expect("pc in range");
            if let Some((base, offset, width)) = access_of(&inst) {
                let safe = access_must_be_safe(
                    an,
                    scheme,
                    globals,
                    is_main,
                    &sp_arms,
                    &st.get(base),
                    offset,
                    width,
                );
                must_safe.insert(pc, safe);
            }
            an.transfer_inst(pc, &inst, &mut st, is_main, false);
        }
    }

    // Pass 2: forward must-availability of checks over the same blocks.
    // Facts survive a join only when present (with a compatible range)
    // on every path, so a surviving generator necessarily lies on every
    // entry→access path; the dominator check below is the structural
    // counterpart of that argument.
    let mut in_facts: BTreeMap<usize, Facts> = BTreeMap::new();
    in_facts.insert(entry_bi, Facts::new());
    let mut work: VecDeque<usize> = VecDeque::new();
    work.push_back(entry_bi);
    while let Some(bi) = work.pop_front() {
        let facts = in_facts[&bi].clone();
        let in_state = state_of(bi).expect("queued blocks have an in-state");
        for (succ_bi, out) in walk_block(
            an, &cfg, bi, in_state, facts, scheme, &must_safe, is_main, None,
        ) {
            if state_of(succ_bi).is_none() {
                continue; // statically unreachable in this context
            }
            let updated = match in_facts.get(&succ_bi) {
                None => out,
                Some(prev) => {
                    let met = meet(prev, &out);
                    if &met == prev {
                        continue;
                    }
                    met
                }
            };
            in_facts.insert(succ_bi, updated);
            if !work.contains(&succ_bi) {
                work.push_back(succ_bi);
            }
        }
    }

    // Pass 3: final verdicts from the stabilized facts.
    let mut redundant: BTreeMap<u64, bool> = BTreeMap::new();
    for (&bi, facts) in &in_facts.clone() {
        let mut sink = |pc: u64, covered_by: Option<(u64, usize)>| {
            let ok = covered_by.is_some_and(|(_, gbi)| dom.dominates(gbi, bi));
            redundant.insert(pc, ok);
        };
        walk_block(
            an,
            &cfg,
            bi,
            state_of(bi).expect("blocks with facts have an in-state"),
            facts.clone(),
            scheme,
            &must_safe,
            is_main,
            Some(&mut sink),
        );
    }

    for (&pc, &safe) in &must_safe {
        let verdict = if safe {
            Some(ElideClass::MustBeSafe)
        } else if redundant.get(&pc) == Some(&true) {
            Some(ElideClass::Redundant)
        } else {
            None
        };
        verdicts
            .entry(pc)
            .and_modify(|v| {
                *v = match (*v, verdict) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    _ => None,
                }
            })
            .or_insert(verdict);
    }
}

/// The `(base, offset, width)` of a load/store, if `inst` is one.
fn access_of(inst: &Inst) -> Option<(Reg, i64, u64)> {
    match *inst {
        Inst::Load {
            base, offset, size, ..
        } => Some((base, offset, size.bytes())),
        Inst::Store {
            base, offset, size, ..
        } => Some((base, offset, size.bytes())),
        _ => None,
    }
}

/// Walks block `bi`: replays the abstract state from its saved
/// `in_state` while tracking check availability. Returns the
/// per-successor fact maps. When `sink` is given, each non-MustBeSafe
/// access reports the generating check that covers it (or `None`).
#[allow(clippy::too_many_arguments)]
fn walk_block(
    an: &mut Analyzer<'_>,
    cfg: &Cfg,
    bi: usize,
    in_state: &State,
    mut facts: Facts,
    scheme: ElideScheme,
    must_safe: &BTreeMap<u64, bool>,
    is_main: bool,
    mut sink: CoverSink<'_>,
) -> Vec<(usize, Facts)> {
    let block = &cfg.blocks[bi];
    let mut st = in_state.clone();
    for pc in block.pcs() {
        // Invariant: `Cfg::build` makes blocks from `program`'s PCs.
        let inst = an.program.fetch(pc).expect("pc in range");
        match inst {
            Inst::Load {
                dst,
                base,
                offset,
                size,
                ..
            } => {
                step_access(
                    &mut facts,
                    must_safe,
                    pc,
                    bi,
                    base,
                    offset,
                    size.bytes(),
                    &mut sink,
                );
                facts.remove(&dst.index());
            }
            Inst::Store {
                base, offset, size, ..
            } => {
                step_access(
                    &mut facts,
                    must_safe,
                    pc,
                    bi,
                    base,
                    offset,
                    size.bytes(),
                    &mut sink,
                );
                // Under ASan a store that might land in shadow memory can
                // re-poison bytes a previous check proved clean.
                if scheme == ElideScheme::Asan
                    && !store_clear_of_shadow(&st.get(base), offset, size.bytes())
                {
                    facts.clear();
                }
            }
            Inst::Li { dst, .. }
            | Inst::Alu { dst, .. }
            | Inst::AluImm { dst, .. }
            | Inst::Jal { dst, .. }
            | Inst::Jalr { dst, .. } => {
                facts.remove(&dst.index());
            }
            // An arm/disarm mutates token state; an ecall can allocate,
            // free (quarantine-fill), or bulk-copy — all can arm bytes.
            Inst::Arm { .. } | Inst::Disarm { .. } | Inst::Ecall => facts.clear(),
            Inst::Branch { .. } | Inst::Halt | Inst::Nop => {}
        }
        an.transfer_inst(pc, &inst, &mut st, is_main, false);
    }

    let mut outs = Vec::new();
    for succ in &block.succs {
        match *succ {
            Succ::Fall(t) | Succ::Jump(t) | Succ::Taken(t) => {
                if let Some(ni) = cfg.block_at(t) {
                    outs.push((ni, facts.clone()));
                }
            }
            // A callee may arm, free, or check arbitrarily: no fact
            // survives a call.
            Succ::CallReturn { ret, .. } => {
                if let Some(ni) = cfg.block_at(ret) {
                    outs.push((ni, Facts::new()));
                }
            }
            _ => {}
        }
    }
    outs
}

/// Fact transfer for one access: consume a covering fact (reporting it
/// to `sink`) or become the new generator for its base register.
#[allow(clippy::too_many_arguments)]
fn step_access(
    facts: &mut Facts,
    must_safe: &BTreeMap<u64, bool>,
    pc: u64,
    bi: usize,
    base: Reg,
    offset: i64,
    width: u64,
    sink: &mut CoverSink<'_>,
) {
    if must_safe.get(&pc) == Some(&true) {
        // The check is elided outright: it neither consumes nor
        // generates availability.
        return;
    }
    let key = base.index();
    let Some(end) = offset.checked_add(width as i64) else {
        facts.remove(&key);
        return;
    };
    let covered = facts
        .get(&key)
        .filter(|f| f.gen.is_some() && f.lo <= offset && end <= f.hi_w)
        .and_then(|f| f.gen);
    if let Some(s) = sink.as_mut() {
        s(pc, covered);
    }
    if covered.is_none() {
        // This check executes at runtime; it becomes the generator.
        facts.insert(
            key,
            Fact {
                lo: offset,
                hi_w: end,
                gen: Some((pc, bi)),
            },
        );
    }
}

/// Whether a store through `base + offset` provably cannot touch the
/// ASan shadow region (conservatively `false` for anything unbounded).
fn store_clear_of_shadow(base: &AbsVal, offset: i64, width: u64) -> bool {
    let shadow = SHADOW_BASE as i64;
    match base {
        AbsVal::Num { val, .. } => match (val.lo, val.hi) {
            (Some(lo), Some(hi)) => {
                let (Some(lo), Some(end)) = (
                    lo.checked_add(offset),
                    hi.checked_add(offset)
                        .and_then(|h| h.checked_add(width as i64)),
                ) else {
                    return false;
                };
                lo >= 0 && end <= shadow
            }
            _ => false,
        },
        AbsVal::Ptr { off, .. } => match (off.lo, off.hi) {
            // Chunk base + bounded offset stays far below the 4 GiB
            // shadow base (the arena tops out at 1.25 GiB).
            (Some(lo), Some(hi)) => {
                lo.saturating_add(offset) > -(HEAP_BASE as i64)
                    && hi.saturating_add(offset).saturating_add(width as i64)
                        < shadow - (HEAP_BASE + HEAP_SPAN) as i64
            }
            _ => false,
        },
        AbsVal::SpRel { off } => match (off.lo, off.hi) {
            (Some(lo), Some(hi)) => {
                lo.saturating_add(offset) > -FRAME_SANE
                    && hi.saturating_add(offset).saturating_add(width as i64) < FRAME_SANE
            }
            _ => false,
        },
        AbsVal::Top | AbsVal::Undef => false,
    }
}

// ---------------------------------------------------------------------
// MustBeSafe gates
// ---------------------------------------------------------------------

/// Whether an access of `width` bytes at `base + offset` can be proven
/// to never touch armed/tokened memory on any path, given the global
/// token geography.
#[allow(clippy::too_many_arguments)]
fn access_must_be_safe(
    an: &Analyzer<'_>,
    scheme: ElideScheme,
    globals: &Globals,
    _is_main: bool,
    sp_arms: &BTreeSet<i64>,
    base: &AbsVal,
    offset: i64,
    width: u64,
) -> bool {
    let g = GRANULE as i64;
    match base {
        AbsVal::Ptr { site, off, delta } => {
            if *delta {
                return false; // cross-allocation stride (§V-C)
            }
            let site = *site;
            let info = &an.sites[site];
            let Some(usable) = info.usable_size() else {
                return false;
            };
            let off = off.add(&crate::domain::SInt::val(offset));
            let (Some(lo), Some(hi)) = (off.lo, off.hi) else {
                return false;
            };
            let Some(end) = hi.checked_add(width as i64) else {
                return false;
            };
            // Strictly inside the user area: clear of both redzones and
            // of the §V-C alignment padding.
            if lo < 0 || end > usable as i64 {
                return false;
            }
            // The site must never be freed anywhere (monotone set), no
            // guest arm may target it, and no wildcard free may exist.
            if an.may_freed.contains(&site) || an.unknown_free {
                return false;
            }
            if an.heap_arm_sites.contains(&site) {
                return false;
            }
            match info.kind {
                AllocKind::Malloc | AllocKind::Calloc | AllocKind::Realloc => {
                    // Live chunk bytes in the arena; only an absolute arm
                    // landing inside the arena could overlap them.
                    !globals.abs_arm_in_heap
                }
                AllocKind::Sbrk => {
                    // Static-region growth: no redzones exist, but an
                    // absolute arm below the heap or an arm on any sbrk
                    // chunk (unknown concrete address) could alias.
                    !globals.abs_arm_below_heap && !globals.sbrk_guest_arm
                }
            }
        }
        AbsVal::SpRel { off } => {
            if scheme == ElideScheme::Asan {
                // ASan stack redzones are shadow pokes the arm model
                // cannot see; never elide stack accesses statically.
                return false;
            }
            let off = off.add(&crate::domain::SInt::val(offset));
            let (Some(lo), Some(hi)) = (off.lo, off.hi) else {
                return false;
            };
            let Some(end) = hi.checked_add(width as i64) else {
                return false;
            };
            // Own frame only (at or below the entry sp), within the sane
            // frame window, clear of this function's own frame arms.
            if end > 0 || lo <= -FRAME_SANE {
                return false;
            }
            sp_arms.iter().all(|&o| !(lo < o + g && end > o))
        }
        AbsVal::Num { val, delta } => {
            if *delta {
                return false;
            }
            let val = val.add(&crate::domain::SInt::val(offset));
            let (Some(lo), Some(hi)) = (val.lo, val.hi) else {
                return false;
            };
            let Some(end) = hi.checked_add(width as i64) else {
                return false;
            };
            let abs_arm_overlap = an
                .abs_arms
                .iter()
                .any(|&a| (a as i64) < end && a as i64 + g > lo);
            if abs_arm_overlap {
                return false;
            }
            let below_heap = lo >= 0 && end <= HEAP_BASE as i64;
            let in_stack = lo > (HEAP_BASE + HEAP_SPAN) as i64 && end <= STACK_TOP as i64;
            if below_heap {
                // Code + static region: tokens only via absolute arms
                // (checked above) or guest arms on sbrk chunks, whose
                // concrete addresses are unknown.
                let _ = STATIC_BASE; // region bound documented in DESIGN.md
                !globals.sbrk_guest_arm
            } else if in_stack && scheme == ElideScheme::Rest {
                // Absolute stack addresses (main's frame): frame arms of
                // other functions live at unknown absolute addresses, so
                // any sp-relative arm anywhere blocks this.
                !globals.any_sp_arm
            } else {
                false
            }
        }
        AbsVal::Top | AbsVal::Undef => false,
    }
}
