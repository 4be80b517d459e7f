use std::fmt;

use crate::reg::Reg;

/// Execution class of a dynamic instruction, used by the timing model to
/// pick a functional unit and latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Single-cycle integer ALU operation (also covers `li`, moves, nops).
    IntAlu,
    /// Pipelined integer multiply.
    IntMul,
    /// Unpipelined integer divide.
    IntDiv,
    /// Data-memory read.
    Load,
    /// Data-memory write.
    Store,
    /// REST `arm` — microarchitecturally a store that never forwards.
    Arm,
    /// REST `disarm` — microarchitecturally a store that never forwards.
    Disarm,
    /// Conditional branch or jump (direct or indirect).
    Branch,
}

impl OpKind {
    /// Whether this operation occupies a load-queue or store-queue entry.
    pub fn is_mem(self) -> bool {
        matches!(
            self,
            OpKind::Load | OpKind::Store | OpKind::Arm | OpKind::Disarm
        )
    }

    /// Whether this operation writes memory (occupies a store-queue
    /// entry). `arm`/`disarm` are stores in the LSQ, per the paper §III-B.
    pub fn is_store_like(self) -> bool {
        matches!(self, OpKind::Store | OpKind::Arm | OpKind::Disarm)
    }
}

/// What a memory micro-op does to its target line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemAccessKind {
    Load,
    Store,
    Arm,
    Disarm,
}

/// A dynamic memory reference: resolved (oracle) address and width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Resolved byte address.
    pub addr: u64,
    /// Access width in bytes (for `arm`/`disarm` this is the token width).
    pub size: u64,
    /// Access kind.
    pub kind: MemAccessKind,
}

impl MemRef {
    /// Whether this reference overlaps `[addr, addr+size)` of `other`.
    pub fn overlaps(&self, other: &MemRef) -> bool {
        self.addr < other.addr.wrapping_add(other.size)
            && other.addr < self.addr.wrapping_add(self.size)
    }

    /// Cache-line index of the first byte (64-byte lines).
    pub fn line(&self) -> u64 {
        self.addr / crate::CACHE_LINE
    }
}

/// Resolved (oracle) outcome of a control-flow instruction, consumed by
/// the branch-predictor model to decide whether fetch was redirected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchInfo {
    /// Whether the branch was taken.
    pub taken: bool,
    /// Next PC actually followed.
    pub target: u64,
    /// Whether this is a conditional branch (predicted by direction
    /// predictor) as opposed to an unconditional jump.
    pub conditional: bool,
    /// Whether this is a call (pushes the return-address stack).
    pub is_call: bool,
    /// Whether this is a return (pops the return-address stack).
    pub is_return: bool,
    /// Whether the target comes from a register (BTB/RAS required even
    /// when direction is known).
    pub indirect: bool,
}

/// Attribution label for Figure 3's overhead breakdown: which part of the
/// hardened software stack injected this dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Component {
    /// Original application code.
    #[default]
    App,
    /// Allocator work (metadata updates, redzone poisoning/arming,
    /// quarantine management).
    Allocator,
    /// Function prologue/epilogue stack-protection code.
    StackProtect,
    /// Per-access validity check (ASan shadow load + compare + branch).
    AccessCheck,
    /// Interposed libc data-movement call checking (ASan component 4).
    ApiIntercept,
}

impl Component {
    /// All components in display order.
    pub const ALL: [Component; 5] = [
        Component::App,
        Component::Allocator,
        Component::StackProtect,
        Component::AccessCheck,
        Component::ApiIntercept,
    ];

    /// Position in [`Component::ALL`].
    pub const fn index(self) -> usize {
        match self {
            Component::App => 0,
            Component::Allocator => 1,
            Component::StackProtect => 2,
            Component::AccessCheck => 3,
            Component::ApiIntercept => 4,
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Component::App => "app",
            Component::Allocator => "allocator",
            Component::StackProtect => "stack-setup",
            Component::AccessCheck => "access-check",
            Component::ApiIntercept => "api-intercept",
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One dynamic instruction as seen by the timing model.
///
/// The functional emulator executes the program (including runtime
/// services) ahead of the pipeline and emits a stream of `DynInst`s with
/// *oracle* values: resolved memory addresses and branch outcomes. The
/// timing model then replays the stream through fetch, rename, issue, the
/// LSQ, and commit, discovering mispredictions by comparing predictor
/// output against the oracle outcome. This trace-driven split is the
/// standard construction for cycle-level simulators and keeps the REST
/// mechanisms (token-bit checks at the L1-D, forwarding checks in the
/// LSQ, store-commit policies) on exactly the paths the paper modifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynInst {
    /// PC of the (macro) instruction that produced this micro-op.
    pub pc: u64,
    /// Execution class.
    pub kind: OpKind,
    /// Source registers (up to two).
    pub srcs: [Option<Reg>; 2],
    /// Destination register, if any.
    pub dst: Option<Reg>,
    /// Memory reference, present iff `kind.is_mem()`.
    pub mem: Option<MemRef>,
    /// Branch outcome, present iff `kind == OpKind::Branch`.
    pub branch: Option<BranchInfo>,
    /// Attribution for the Figure 3 breakdown.
    pub component: Component,
}

impl DynInst {
    /// An integer ALU micro-op.
    pub fn alu(pc: u64, dst: Option<Reg>, srcs: [Option<Reg>; 2]) -> DynInst {
        DynInst {
            pc,
            kind: OpKind::IntAlu,
            srcs,
            dst,
            mem: None,
            branch: None,
            component: Component::App,
        }
    }

    /// A load micro-op at the given resolved address.
    pub fn load(pc: u64, dst: Option<Reg>, base: Option<Reg>, addr: u64, size: u64) -> DynInst {
        DynInst {
            pc,
            kind: OpKind::Load,
            srcs: [base, None],
            dst,
            mem: Some(MemRef {
                addr,
                size,
                kind: MemAccessKind::Load,
            }),
            branch: None,
            component: Component::App,
        }
    }

    /// A store micro-op at the given resolved address.
    pub fn store(pc: u64, data: Option<Reg>, base: Option<Reg>, addr: u64, size: u64) -> DynInst {
        DynInst {
            pc,
            kind: OpKind::Store,
            srcs: [base, data],
            dst: None,
            mem: Some(MemRef {
                addr,
                size,
                kind: MemAccessKind::Store,
            }),
            branch: None,
            component: Component::App,
        }
    }

    /// An `arm` micro-op covering `width` bytes at `addr`.
    pub fn arm(pc: u64, base: Option<Reg>, addr: u64, width: u64) -> DynInst {
        DynInst {
            pc,
            kind: OpKind::Arm,
            srcs: [base, None],
            dst: None,
            mem: Some(MemRef {
                addr,
                size: width,
                kind: MemAccessKind::Arm,
            }),
            branch: None,
            component: Component::App,
        }
    }

    /// A `disarm` micro-op covering `width` bytes at `addr`.
    pub fn disarm(pc: u64, base: Option<Reg>, addr: u64, width: u64) -> DynInst {
        DynInst {
            pc,
            kind: OpKind::Disarm,
            srcs: [base, None],
            dst: None,
            mem: Some(MemRef {
                addr,
                size: width,
                kind: MemAccessKind::Disarm,
            }),
            branch: None,
            component: Component::App,
        }
    }

    /// A resolved branch micro-op.
    pub fn branch(pc: u64, srcs: [Option<Reg>; 2], dst: Option<Reg>, info: BranchInfo) -> DynInst {
        DynInst {
            pc,
            kind: OpKind::Branch,
            srcs,
            dst,
            mem: None,
            branch: Some(info),
            component: Component::App,
        }
    }

    /// Returns a copy attributed to `component`.
    pub fn with_component(mut self, component: Component) -> DynInst {
        self.component = component;
        self
    }

    /// Returns a copy with the execution class replaced (e.g. to mark a
    /// multiply or divide).
    pub fn with_kind(mut self, kind: OpKind) -> DynInst {
        self.kind = kind;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_index_is_its_position_in_all() {
        for (i, c) in Component::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i, "{c}");
        }
    }

    #[test]
    fn memref_overlap() {
        let a = MemRef {
            addr: 100,
            size: 8,
            kind: MemAccessKind::Load,
        };
        let b = MemRef {
            addr: 104,
            size: 8,
            kind: MemAccessKind::Store,
        };
        let c = MemRef {
            addr: 108,
            size: 4,
            kind: MemAccessKind::Store,
        };
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    #[test]
    fn memref_line_uses_64_byte_lines() {
        let m = MemRef {
            addr: 130,
            size: 4,
            kind: MemAccessKind::Load,
        };
        assert_eq!(m.line(), 2);
    }

    #[test]
    fn store_like_classification() {
        assert!(OpKind::Store.is_store_like());
        assert!(OpKind::Arm.is_store_like());
        assert!(OpKind::Disarm.is_store_like());
        assert!(!OpKind::Load.is_store_like());
        assert!(OpKind::Load.is_mem());
        assert!(!OpKind::IntAlu.is_mem());
    }

    #[test]
    fn builders_fill_expected_fields() {
        let ld = DynInst::load(0x40, Some(Reg::A0), Some(Reg::SP), 0x2000, 8);
        assert_eq!(ld.kind, OpKind::Load);
        assert_eq!(ld.mem.unwrap().addr, 0x2000);
        assert_eq!(ld.dst, Some(Reg::A0));
        assert_eq!(ld.component, Component::App);

        let arm = DynInst::arm(0x44, None, 0x3000, 64).with_component(Component::Allocator);
        assert_eq!(arm.kind, OpKind::Arm);
        assert_eq!(arm.mem.unwrap().size, 64);
        assert_eq!(arm.component, Component::Allocator);
    }
}
