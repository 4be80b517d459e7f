//! Dominator trees over the recovered CFG.
//!
//! The check-elision pass needs domination to justify `Redundant`
//! verdicts: a check may be skipped only when the *generating* check
//! lies on every path from the function entry to the elided access. The
//! tree is built per recovered function with the Cooper–Harvey–Kennedy
//! iterative algorithm over a reverse postorder, which handles
//! irreducible control flow (loops with multiple entries) without
//! special cases — the fixpoint simply converges on the common
//! dominator.
//!
//! Edges mirror exactly what the dataflow analysis propagates along:
//! fall-through, jump, and taken-branch targets plus the return point of
//! a call (`Succ::CallReturn { ret, .. }`). `Ret`/`Exit`/`Indirect`/
//! `FallsOffEnd` terminate paths and contribute no edge.

use std::collections::BTreeMap;

use crate::cfg::{Cfg, Function, Succ};

/// Immediate-dominator tree for one recovered function. Blocks are
/// identified by their index into [`Cfg::blocks`].
#[derive(Debug, Clone)]
pub struct DomTree {
    /// The function's entry block index.
    pub entry: usize,
    /// `idom[b]` for every reachable member block except the entry.
    idom: BTreeMap<usize, usize>,
    /// Reverse-postorder number of every reachable member block (the
    /// entry is 0). Blocks outside the map are unreachable from entry.
    rpo: BTreeMap<usize, usize>,
}

impl DomTree {
    /// Builds the dominator tree of `func` over `cfg`.
    pub fn build(cfg: &Cfg, func: &Function) -> DomTree {
        let Some(entry) = cfg.block_at(func.entry) else {
            return DomTree {
                entry: usize::MAX,
                idom: BTreeMap::new(),
                rpo: BTreeMap::new(),
            };
        };

        // Successors of a member block, restricted to member blocks.
        let succs = |bi: usize| -> Vec<usize> {
            let mut out = Vec::new();
            for s in &cfg.blocks[bi].succs {
                let target = match *s {
                    Succ::Fall(t) | Succ::Jump(t) | Succ::Taken(t) => Some(t),
                    Succ::CallReturn { ret, .. } => Some(ret),
                    Succ::Ret | Succ::Exit | Succ::Indirect | Succ::FallsOffEnd => None,
                };
                if let Some(ni) = target.and_then(|t| cfg.block_at(t)) {
                    if func.slot(ni).is_some() && !out.contains(&ni) {
                        out.push(ni);
                    }
                }
            }
            out
        };

        // Depth-first postorder from the entry (iterative, deterministic).
        let mut post: Vec<usize> = Vec::new();
        let mut seen: BTreeMap<usize, bool> = BTreeMap::new();
        let mut stack: Vec<(usize, Vec<usize>, usize)> = vec![(entry, succs(entry), 0)];
        seen.insert(entry, true);
        while let Some((bi, ss, cursor)) = stack.pop() {
            if cursor < ss.len() {
                let next = ss[cursor];
                stack.push((bi, ss, cursor + 1));
                if seen.insert(next, true).is_none() {
                    stack.push((next, succs(next), 0));
                }
            } else {
                post.push(bi);
            }
        }
        let rpo_order: Vec<usize> = post.into_iter().rev().collect();
        let rpo: BTreeMap<usize, usize> = rpo_order
            .iter()
            .enumerate()
            .map(|(n, &bi)| (bi, n))
            .collect();

        // Predecessors among reachable member blocks.
        let mut preds: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &bi in &rpo_order {
            for s in succs(bi) {
                if rpo.contains_key(&s) {
                    preds.entry(s).or_default().push(bi);
                }
            }
        }

        // Cooper–Harvey–Kennedy: iterate to fixpoint in RPO.
        let mut idom: BTreeMap<usize, usize> = BTreeMap::new();
        idom.insert(entry, entry);
        let intersect = |idom: &BTreeMap<usize, usize>, mut a: usize, mut b: usize| {
            while a != b {
                while rpo[&a] > rpo[&b] {
                    a = idom[&a];
                }
                while rpo[&b] > rpo[&a] {
                    b = idom[&b];
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &bi in rpo_order.iter().skip(1) {
                let mut new_idom: Option<usize> = None;
                for &p in preds.get(&bi).into_iter().flatten() {
                    if !idom.contains_key(&p) {
                        continue; // predecessor not yet processed
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
                if let Some(n) = new_idom {
                    if idom.get(&bi) != Some(&n) {
                        idom.insert(bi, n);
                        changed = true;
                    }
                }
            }
        }
        idom.remove(&entry); // the entry has no immediate dominator
        DomTree { entry, idom, rpo }
    }

    /// The immediate dominator of `bi` (`None` for the entry and for
    /// blocks unreachable from the entry).
    pub fn idom(&self, bi: usize) -> Option<usize> {
        self.idom.get(&bi).copied()
    }

    /// Whether block `a` dominates block `b` (reflexive). Unreachable
    /// blocks dominate nothing and are dominated by nothing.
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        if !self.rpo.contains_key(&a) || !self.rpo.contains_key(&b) {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom(cur) {
                Some(up) => cur = up,
                None => return false,
            }
        }
    }

    /// Whether `bi` is reachable from the function entry.
    pub fn reachable(&self, bi: usize) -> bool {
        self.rpo.contains_key(&bi)
    }
}

#[cfg(test)]
mod tests {
    use super::DomTree;
    use crate::cfg::Cfg;
    use rest_isa::{EcallNum, Program, ProgramBuilder, Reg, PC_STEP};

    fn block_at(cfg: &Cfg, inst_idx: u64) -> usize {
        cfg.block_at(Program::CODE_BASE + inst_idx * PC_STEP)
            .unwrap()
    }

    /// Diamond: the join is dominated by the split, not by either arm.
    #[test]
    fn diamond_join_is_dominated_by_the_split_only() {
        let mut p = ProgramBuilder::new();
        let else_l = p.new_label();
        let join_l = p.new_label();
        p.beq(Reg::A1, Reg::ZERO, else_l); // 0: split
        p.li(Reg::T1, 1); // 1: then-arm
        p.j(join_l); // 2
        p.bind(else_l);
        p.li(Reg::T2, 2); // 3: else-arm
        p.bind(join_l);
        p.li(Reg::A0, 0); // 4: join
        p.ecall(EcallNum::Exit); // 5, 6
        p.li(Reg::T5, 9); // 7: unreachable
        let program = p.build();
        let cfg = Cfg::build(&program);
        let dom = DomTree::build(&cfg, &cfg.functions[0]);

        let split = block_at(&cfg, 0);
        let then_arm = block_at(&cfg, 1);
        let else_arm = block_at(&cfg, 3);
        let join = block_at(&cfg, 4);
        let dead = block_at(&cfg, 7);

        assert_eq!(dom.entry, split);
        assert_eq!(dom.idom(split), None);
        assert_eq!(dom.idom(then_arm), Some(split));
        assert_eq!(dom.idom(else_arm), Some(split));
        assert_eq!(dom.idom(join), Some(split));
        assert!(dom.dominates(split, join));
        assert!(dom.dominates(join, join), "domination is reflexive");
        assert!(!dom.dominates(then_arm, join));
        assert!(!dom.dominates(else_arm, join));
        assert!(!dom.reachable(dead));
        assert!(!dom.dominates(split, dead));
    }

    /// Irreducible loop: {B, C} entered at both B (fall-through from the
    /// split) and C (taken branch). Neither loop block dominates the
    /// other; the fixpoint converges on the split as common idom.
    #[test]
    fn irreducible_loop_blocks_share_the_split_as_idom() {
        let mut p = ProgramBuilder::new();
        let b_l = p.new_label();
        let c_l = p.new_label();
        p.beq(Reg::A1, Reg::ZERO, c_l); // 0: split -> C taken, B fall
        p.bind(b_l);
        p.li(Reg::T1, 1); // 1: B, falls into C
        p.bind(c_l);
        p.li(Reg::T2, 2); // 2: C
        p.beq(Reg::A2, Reg::ZERO, b_l); // 3: C -> B taken, exit fall
        p.li(Reg::A0, 0); // 4: exit block
        p.ecall(EcallNum::Exit); // 5, 6
        let program = p.build();
        let cfg = Cfg::build(&program);
        let dom = DomTree::build(&cfg, &cfg.functions[0]);

        let split = block_at(&cfg, 0);
        let b = block_at(&cfg, 1);
        let c = block_at(&cfg, 2);
        let exit = block_at(&cfg, 4);

        // Two entries into the loop: neither member dominates the other.
        assert_eq!(dom.idom(b), Some(split));
        assert_eq!(dom.idom(c), Some(split));
        assert!(!dom.dominates(b, c));
        assert!(!dom.dominates(c, b));
        // The exit is only reachable through C.
        assert_eq!(dom.idom(exit), Some(c));
        assert!(dom.dominates(c, exit));
        assert!(dom.dominates(split, exit));
        assert!(!dom.dominates(b, exit));
    }
}
