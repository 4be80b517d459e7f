use rest_isa::BranchInfo;
use rest_mem::BlockTable;

/// Gshare counters per [`BlockTable`] block.
const COUNTER_BLOCK: usize = 256;
/// BTB entries per [`BlockTable`] block.
const BTB_BLOCK: usize = 16;

/// Branch predictor: gshare direction predictor + branch target buffer +
/// return-address stack.
///
/// A storage-comparable stand-in for the paper's L-TAGE (31 k entries):
/// what the evaluation needs is a realistic, high-accuracy predictor so
/// that front-end behaviour — and the cost of the extra branches ASan
/// instrumentation introduces — is modelled, not a bit-exact L-TAGE.
///
/// The counter table and the BTB are [`BlockTable`]s allocated on first
/// touch, so building the predictor costs a small index per table and a
/// run pays for the blocks its branches train.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    /// 2-bit saturating counters indexed by `pc ^ history`, initially
    /// weakly not-taken (1).
    counters: BlockTable<u8>,
    history: u64,
    history_mask: u64,
    /// BTB: tagged target cache for taken/indirect branches, initially
    /// empty.
    btb: BlockTable<Option<(u64, u64)>>, // (pc, target)
    /// `btb_entries - 1`.
    btb_mask: usize,
    ras: Vec<u64>,
    ras_depth: usize,
    lookups: u64,
    mispredicts: u64,
}

impl BranchPredictor {
    /// Creates a predictor with `history_bits` of global history,
    /// `btb_entries` targets, and a `ras_depth`-deep return stack.
    pub fn new(history_bits: usize, btb_entries: usize, ras_depth: usize) -> BranchPredictor {
        assert!(history_bits > 0 && history_bits < 30);
        assert!(
            btb_entries.is_power_of_two(),
            "BTB size must be a power of two"
        );
        BranchPredictor {
            counters: BlockTable::new(
                (1usize << history_bits).div_ceil(COUNTER_BLOCK),
                COUNTER_BLOCK,
                1,
            ),
            history: 0,
            history_mask: (1u64 << history_bits) - 1,
            btb: BlockTable::new(btb_entries.div_ceil(BTB_BLOCK), BTB_BLOCK, None),
            btb_mask: btb_entries - 1,
            ras: Vec::new(),
            ras_depth,
            lookups: 0,
            mispredicts: 0,
        }
    }

    fn counter_index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & self.history_mask) as usize
    }

    fn btb_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & self.btb_mask
    }

    /// Predicts the branch at `pc`, then trains on the oracle `outcome`,
    /// returning whether the prediction was **correct** (direction and,
    /// where needed, target).
    #[inline]
    pub fn predict_and_train(&mut self, pc: u64, outcome: &BranchInfo) -> bool {
        self.lookups += 1;
        // --- predict ---
        // A conditional branch predicts from its counter and trains it
        // in one touch: the index depends only on `pc` and the history.
        let dir = if outcome.conditional {
            let idx = self.counter_index(pc);
            let c = &mut self.counters.touch(idx / COUNTER_BLOCK)[idx % COUNTER_BLOCK];
            let taken = *c >= 2;
            *c = if outcome.taken {
                (*c + 1).min(3)
            } else {
                c.saturating_sub(1)
            };
            taken
        } else {
            true
        };
        let target = if outcome.is_return {
            self.ras.last().copied()
        } else {
            let idx = self.btb_index(pc);
            self.btb.get(idx / BTB_BLOCK)[idx % BTB_BLOCK]
                .filter(|&(tag, _)| tag == pc)
                .map(|(_, t)| t)
        };
        let correct_dir = dir == outcome.taken;
        // A taken branch also needs the right target from the BTB/RAS;
        // direct branches resolve the target at decode, so only indirect
        // ones pay for a BTB miss here.
        let needs_target = outcome.taken && (outcome.indirect || outcome.is_return);
        let correct_target = !needs_target || target == Some(outcome.target);
        let correct = correct_dir && correct_target;
        if !correct {
            self.mispredicts += 1;
        }
        // --- train ---
        self.history = ((self.history << 1) | outcome.taken as u64) & self.history_mask;
        if outcome.taken {
            let idx = self.btb_index(pc);
            self.btb.touch(idx / BTB_BLOCK)[idx % BTB_BLOCK] = Some((pc, outcome.target));
        }
        if outcome.is_call {
            if self.ras.len() == self.ras_depth {
                self.ras.remove(0);
            }
            self.ras.push(pc + rest_isa::PC_STEP);
        }
        if outcome.is_return {
            self.ras.pop();
        }
        correct
    }

    /// Total predictions made.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Total mispredictions.
    pub fn mispredicts(&self) -> u64 {
        self.mispredicts
    }

    /// Misprediction rate in [0, 1].
    pub fn mispredict_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn taken_branch(target: u64) -> BranchInfo {
        BranchInfo {
            taken: true,
            target,
            conditional: true,
            is_call: false,
            is_return: false,
            indirect: false,
        }
    }

    fn pred() -> BranchPredictor {
        BranchPredictor::new(12, 512, 8)
    }

    #[test]
    fn learns_a_biased_branch() {
        let mut p = pred();
        let b = taken_branch(0x100);
        // After warm-up (global history must saturate before the gshare
        // index stabilises), an always-taken branch predicts correctly.
        for _ in 0..20 {
            p.predict_and_train(0x40, &b);
        }
        assert!(p.predict_and_train(0x40, &b));
        assert!(p.predict_and_train(0x40, &b));
    }

    #[test]
    fn learns_a_loop_pattern() {
        let mut p = pred();
        let mut wrong = 0;
        // 100 iterations of a 10-iteration loop: backward branch taken 9
        // times then not taken.
        for _ in 0..100 {
            for i in 0..10 {
                let b = BranchInfo {
                    taken: i != 9,
                    target: 0x80,
                    conditional: true,
                    is_call: false,
                    is_return: false,
                    indirect: false,
                };
                if !p.predict_and_train(0x44, &b) {
                    wrong += 1;
                }
            }
        }
        // Global history disambiguates the exit iteration; accuracy must
        // be well above a static predictor's 90%.
        assert!(wrong < 60, "too many mispredicts: {wrong}");
    }

    #[test]
    fn ras_predicts_returns() {
        let mut p = pred();
        let call = BranchInfo {
            taken: true,
            target: 0x1000,
            conditional: false,
            is_call: true,
            is_return: false,
            indirect: false,
        };
        // Train the call once (BTB learns its target).
        p.predict_and_train(0x40, &call);
        let ret = BranchInfo {
            taken: true,
            target: 0x44, // return to call site + 4
            conditional: false,
            is_call: false,
            is_return: true,
            indirect: true,
        };
        p.predict_and_train(0x40, &call);
        assert!(
            p.predict_and_train(0x1000, &ret),
            "RAS must predict the return target"
        );
    }

    #[test]
    fn indirect_branch_needs_btb_hit() {
        let mut p = pred();
        let ind = BranchInfo {
            taken: true,
            target: 0x2000,
            conditional: false,
            is_call: false,
            is_return: false,
            indirect: true,
        };
        // Cold BTB: mispredict.
        assert!(!p.predict_and_train(0x80, &ind));
        // Warm: correct.
        assert!(p.predict_and_train(0x80, &ind));
        // Target change: mispredict again.
        let ind2 = BranchInfo {
            target: 0x3000,
            ..ind
        };
        assert!(!p.predict_and_train(0x80, &ind2));
    }

    /// The eager predictor the block tables replaced: both tables built
    /// in full up front, counters weakly not-taken, BTB empty.
    struct EagerPredictor {
        counters: Vec<u8>,
        history: u64,
        history_mask: u64,
        btb: Vec<Option<(u64, u64)>>,
        ras: Vec<u64>,
        ras_depth: usize,
    }

    impl EagerPredictor {
        fn predict_and_train(&mut self, pc: u64, outcome: &BranchInfo) -> bool {
            let ci = (((pc >> 2) ^ self.history) & self.history_mask) as usize;
            let bi = ((pc >> 2) as usize) & (self.btb.len() - 1);
            let dir = !outcome.conditional || self.counters[ci] >= 2;
            let target = if outcome.is_return {
                self.ras.last().copied()
            } else {
                self.btb[bi].filter(|&(tag, _)| tag == pc).map(|(_, t)| t)
            };
            let needs_target = outcome.taken && (outcome.indirect || outcome.is_return);
            let correct = dir == outcome.taken && (!needs_target || target == Some(outcome.target));
            if outcome.conditional {
                let c = &mut self.counters[ci];
                *c = if outcome.taken {
                    (*c + 1).min(3)
                } else {
                    c.saturating_sub(1)
                };
            }
            self.history = ((self.history << 1) | outcome.taken as u64) & self.history_mask;
            if outcome.taken {
                self.btb[bi] = Some((pc, outcome.target));
            }
            if outcome.is_call {
                if self.ras.len() == self.ras_depth {
                    self.ras.remove(0);
                }
                self.ras.push(pc + rest_isa::PC_STEP);
            }
            if outcome.is_return {
                self.ras.pop();
            }
            correct
        }
    }

    /// Drives `BranchPredictor` and [`EagerPredictor`] through one seeded
    /// random branch stream and requires the same verdict every time.
    fn lockstep(history_bits: usize, btb_entries: usize, seed: u64) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = BranchPredictor::new(history_bits, btb_entries, 4);
        let mut e = EagerPredictor {
            counters: vec![1; 1 << history_bits],
            history: 0,
            history_mask: (1 << history_bits) - 1,
            btb: vec![None; btb_entries],
            ras: Vec::new(),
            ras_depth: 4,
        };
        let mut wrong = 0;
        for step in 0..50_000u64 {
            // A few hundred static branches, each with a biased direction
            // and one of two targets.
            let pc = rng.gen_range(0..400u64) * 4;
            let kind = rng.gen_range(0..10u32);
            let outcome = BranchInfo {
                taken: kind >= 6 || rng.gen_bool(if pc % 12 == 0 { 0.9 } else { 0.3 }),
                target: 0x1000 + pc * 2 + (rng.gen_range(0..5u64) == 0) as u64 * 4,
                conditional: kind < 6,
                is_call: kind == 6 || kind == 7,
                is_return: kind == 8,
                indirect: kind == 8 || kind == 9,
            };
            let got = p.predict_and_train(pc, &outcome);
            assert_eq!(
                got,
                e.predict_and_train(pc, &outcome),
                "step {step}: {outcome:?}"
            );
            wrong += !got as u64;
        }
        assert_eq!(p.mispredicts(), wrong);
        assert!(
            wrong > 0 && wrong < p.lookups(),
            "the stream exercises both verdicts"
        );
    }

    #[test]
    fn block_tables_match_the_eager_tables_step_for_step() {
        lockstep(12, 512, 1); // many blocks per table
        lockstep(4, 8, 2); // each table smaller than one block
        lockstep(15, 4096, 3); // the ISCA configuration
    }

    #[test]
    fn fresh_predictor_allocates_tables_on_first_training() {
        let mut p = BranchPredictor::new(15, 4096, 8);
        assert_eq!(
            (p.counters.touched_blocks(), p.btb.touched_blocks()),
            (0, 0)
        );
        // A not-taken conditional branch trains one counter and no BTB entry.
        p.predict_and_train(
            0x40,
            &BranchInfo {
                taken: false,
                ..taken_branch(0x100)
            },
        );
        assert_eq!(
            (p.counters.touched_blocks(), p.btb.touched_blocks()),
            (1, 0)
        );
        p.predict_and_train(0x40, &taken_branch(0x100));
        assert_eq!(p.btb.touched_blocks(), 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut p = pred();
        let b = taken_branch(0x100);
        for _ in 0..100 {
            p.predict_and_train(0x40, &b);
        }
        assert_eq!(p.lookups(), 100);
        assert!(p.mispredict_rate() < 0.5);
    }
}
