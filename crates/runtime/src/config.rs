use rest_core::{
    Mode, MteBackend, MteMode, NullBackend, PacBackend, ProtectionBackend, RestBackend, TokenWidth,
};

use crate::StackScheme;

/// Which memory-safety scheme the runtime applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// No protection: stock allocator, no instrumentation (the paper's
    /// "unsafe" baseline).
    Plain,
    /// AddressSanitizer: shadow memory, instrumented accesses, hardened
    /// allocator, intercepted libc calls.
    Asan,
    /// REST: token redzones, hardware detection, no access
    /// instrumentation.
    Rest,
    /// MTE-style 4-bit lock-and-key memory tagging (sync/async/asymm
    /// checking per [`RtConfig::mte_mode`]).
    Mte,
    /// PA-style pointer signing: sign on allocate, authenticate on use.
    Pa,
}

impl Scheme {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Plain => "plain",
            Scheme::Asan => "asan",
            Scheme::Rest => "rest",
            Scheme::Mte => "mte",
            Scheme::Pa => "pa",
        }
    }
}

/// Full runtime configuration for one simulated run.
///
/// The constructors produce exactly the configurations evaluated in the
/// paper: `plain`, `asan`, and the REST crosses of
/// {secure, debug, perfect-hw} × {full, heap-only} × token width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtConfig {
    /// Active scheme.
    pub scheme: Scheme,
    /// Protect stack frames (the "Full" defensive scope) as opposed to
    /// heap only.
    pub stack_protection: bool,
    /// ASan only: instrument every program load/store with a shadow
    /// check (overhead component 3 of Figure 3).
    pub access_checks: bool,
    /// ASan only: intercept libc data-movement calls and range-check
    /// their arguments (overhead component 4).
    pub intercept_libc: bool,
    /// REST only: model *perfect* (zero-cost) REST hardware by replacing
    /// every arm/disarm with one regular store (the paper's PerfectHW
    /// limit study). Disables actual protection.
    pub perfect_hw: bool,
    /// Ablation: model a naive arm that writes the full token value
    /// immediately (one store per 8 bytes of token width) instead of the
    /// paper's lazy write-on-eviction design (§III-B).
    pub naive_wide_arm: bool,
    /// §V-C mitigation for redzone-jumping: sprinkle decoy tokens into
    /// the gaps between heap chunks so strided scans that leap over
    /// redzones still land on tokens.
    pub sprinkle_tokens: bool,
    /// §VIII REST-aware fast pool: recycled chunks stay armed in the
    /// free pool; reuse disarms only the user area.
    pub fast_pool_allocator: bool,
    /// Token width for REST redzones.
    pub token_width: TokenWidth,
    /// Byte budget of the quarantine pool holding freed allocations.
    pub quarantine_bytes: u64,
    /// REST exception precision mode (secure/debug).
    pub mode: Mode,
    /// MTE only: tag-check mode (sync/async/asymmetric).
    pub mte_mode: MteMode,
}

impl RtConfig {
    /// Default quarantine budget. The paper inherits ASan's allocator;
    /// we scale the default to our workload footprints.
    pub const DEFAULT_QUARANTINE: u64 = 1 << 20;

    /// The unprotected baseline.
    pub fn plain() -> RtConfig {
        RtConfig {
            scheme: Scheme::Plain,
            stack_protection: false,
            access_checks: false,
            intercept_libc: false,
            perfect_hw: false,
            naive_wide_arm: false,
            sprinkle_tokens: false,
            fast_pool_allocator: false,
            token_width: TokenWidth::B64,
            quarantine_bytes: Self::DEFAULT_QUARANTINE,
            mode: Mode::Secure,
            mte_mode: MteMode::Sync,
        }
    }

    /// Full AddressSanitizer (all four overhead components enabled).
    pub fn asan() -> RtConfig {
        RtConfig {
            scheme: Scheme::Asan,
            stack_protection: true,
            access_checks: true,
            intercept_libc: true,
            perfect_hw: false,
            naive_wide_arm: false,
            sprinkle_tokens: false,
            fast_pool_allocator: false,
            token_width: TokenWidth::B64,
            quarantine_bytes: Self::DEFAULT_QUARANTINE,
            mode: Mode::Secure,
            mte_mode: MteMode::Sync,
        }
    }

    /// REST in the given exception `mode`; `full` enables stack
    /// protection in addition to heap protection.
    pub fn rest(mode: Mode, full: bool) -> RtConfig {
        RtConfig {
            scheme: Scheme::Rest,
            stack_protection: full,
            access_checks: false,
            intercept_libc: false,
            perfect_hw: false,
            naive_wide_arm: false,
            sprinkle_tokens: false,
            fast_pool_allocator: false,
            token_width: TokenWidth::B64,
            quarantine_bytes: Self::DEFAULT_QUARANTINE,
            mode,
            mte_mode: MteMode::Sync,
        }
    }

    /// The PerfectHW limit study: REST software with every arm/disarm
    /// replaced by one regular store on stock hardware.
    pub fn rest_perfect(full: bool) -> RtConfig {
        RtConfig {
            perfect_hw: true,
            ..RtConfig::rest(Mode::Secure, full)
        }
    }

    /// MTE-style lock-and-key tagging in the given check mode. Tags are
    /// a heap-granule mechanism: stack protection stays off, matching
    /// the deployed stack-tagging-disabled configurations.
    pub fn mte(mte_mode: MteMode) -> RtConfig {
        RtConfig {
            scheme: Scheme::Mte,
            mte_mode,
            ..RtConfig::plain()
        }
    }

    /// PA-style pointer signing: heap pointers signed on allocation and
    /// authenticated on use.
    pub fn pa() -> RtConfig {
        RtConfig {
            scheme: Scheme::Pa,
            ..RtConfig::plain()
        }
    }

    /// Returns a copy with a different token width.
    pub fn with_token_width(mut self, width: TokenWidth) -> RtConfig {
        self.token_width = width;
        self
    }

    /// Returns a copy with a different quarantine budget.
    pub fn with_quarantine(mut self, bytes: u64) -> RtConfig {
        self.quarantine_bytes = bytes;
        self
    }

    /// Returns a copy with decoy-token sprinkling enabled (§V-C).
    pub fn with_sprinkle(mut self) -> RtConfig {
        self.sprinkle_tokens = true;
        self
    }

    /// Returns a copy with the §VIII REST-aware fast pool enabled.
    pub fn with_fast_pool(mut self) -> RtConfig {
        self.fast_pool_allocator = true;
        self
    }

    /// Short label used by the benchmark harness (e.g. `"rest-secure-full"`).
    pub fn label(&self) -> String {
        match self.scheme {
            Scheme::Plain => "plain".to_string(),
            Scheme::Asan => "asan".to_string(),
            Scheme::Rest => {
                let hw = if self.perfect_hw {
                    "perfecthw".to_string()
                } else {
                    self.mode.to_string()
                };
                let scope = if self.stack_protection { "full" } else { "heap" };
                format!("rest-{hw}-{scope}")
            }
            Scheme::Mte => format!("mte-{}", self.mte_mode.name()),
            Scheme::Pa => "pa".to_string(),
        }
    }

    /// Builds the protection backend this configuration calls for. The
    /// `seed` feeds the MTE tag stream and the PA signing key; REST's
    /// token content lives in the system [`rest_core::Token`], not
    /// here. Plain and ASan get the inert [`NullBackend`] (ASan's
    /// shadow checks are same-privilege instrumentation outside the
    /// hardware seam), as does the PerfectHW limit study, whose arms
    /// degrade to plain stores.
    pub fn build_backend(&self, seed: u64) -> Box<dyn ProtectionBackend> {
        match self.scheme {
            Scheme::Plain | Scheme::Asan => Box::new(NullBackend),
            Scheme::Rest => Box::new(RestBackend::new(self.token_width, self.mode)),
            Scheme::Mte => Box::new(MteBackend::new(self.mte_mode, seed)),
            Scheme::Pa => Box::new(PacBackend::new(seed)),
        }
    }

    /// The stack-protection pass this configuration calls for: the
    /// scheme's own frame instrumentation under the "Full" scope, none
    /// under "Heap".
    pub fn stack_scheme(&self) -> StackScheme {
        if !self.stack_protection {
            return StackScheme::None;
        }
        match self.scheme {
            Scheme::Plain => StackScheme::None,
            Scheme::Asan => StackScheme::Asan,
            Scheme::Rest => StackScheme::Rest,
            // Heap-granule schemes carry no stack instrumentation.
            Scheme::Mte | Scheme::Pa => StackScheme::None,
        }
    }

    /// Whether recorded accesses are checked through the backend (the
    /// hardware-protected schemes; PerfectHW disables real protection).
    pub fn checks_in_backend(&self) -> bool {
        match self.scheme {
            Scheme::Plain | Scheme::Asan => false,
            Scheme::Rest => !self.perfect_hw,
            Scheme::Mte | Scheme::Pa => true,
        }
    }

    /// Parses a harness label back into the configuration it denotes —
    /// the inverse of [`RtConfig::label`] over every constructor-built
    /// configuration, so scheme labels can't silently drift from the
    /// enum. Returns `None` for unknown labels.
    pub fn from_label(label: &str) -> Option<RtConfig> {
        match label {
            "plain" => return Some(RtConfig::plain()),
            "asan" => return Some(RtConfig::asan()),
            "pa" => return Some(RtConfig::pa()),
            "mte-sync" => return Some(RtConfig::mte(MteMode::Sync)),
            "mte-async" => return Some(RtConfig::mte(MteMode::Async)),
            "mte-asymm" => return Some(RtConfig::mte(MteMode::Asymm)),
            _ => {}
        }
        let rest = label.strip_prefix("rest-")?;
        let (hw, scope) = rest.split_once('-')?;
        let full = match scope {
            "full" => true,
            "heap" => false,
            _ => return None,
        };
        match hw {
            "secure" => Some(RtConfig::rest(Mode::Secure, full)),
            "debug" => Some(RtConfig::rest(Mode::Debug, full)),
            "perfecthw" => Some(RtConfig::rest_perfect(full)),
            _ => None,
        }
    }
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig::plain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_match_paper_configurations() {
        let p = RtConfig::plain();
        assert!(!p.access_checks && !p.stack_protection);

        let a = RtConfig::asan();
        assert!(a.access_checks && a.intercept_libc && a.stack_protection);

        let r = RtConfig::rest(Mode::Secure, true);
        assert!(!r.access_checks && !r.intercept_libc);
        assert!(r.stack_protection && !r.perfect_hw);

        let rh = RtConfig::rest(Mode::Debug, false);
        assert!(!rh.stack_protection);
        assert_eq!(rh.mode, Mode::Debug);

        let ph = RtConfig::rest_perfect(true);
        assert!(ph.perfect_hw);
    }

    #[test]
    fn labels() {
        assert_eq!(RtConfig::plain().label(), "plain");
        assert_eq!(RtConfig::asan().label(), "asan");
        assert_eq!(RtConfig::rest(Mode::Secure, true).label(), "rest-secure-full");
        assert_eq!(RtConfig::rest(Mode::Debug, false).label(), "rest-debug-heap");
        assert_eq!(RtConfig::rest_perfect(false).label(), "rest-perfecthw-heap");
    }

    #[test]
    fn mte_and_pa_constructors() {
        let m = RtConfig::mte(MteMode::Async);
        assert_eq!(m.scheme, Scheme::Mte);
        assert_eq!(m.mte_mode, MteMode::Async);
        assert!(!m.stack_protection && !m.access_checks && !m.intercept_libc);

        let p = RtConfig::pa();
        assert_eq!(p.scheme, Scheme::Pa);
        assert!(!p.stack_protection && !p.access_checks);
    }

    #[test]
    fn label_round_trips_exhaustively() {
        // Every constructor-built configuration the harness can name.
        let all = [
            RtConfig::plain(),
            RtConfig::asan(),
            RtConfig::rest(Mode::Secure, true),
            RtConfig::rest(Mode::Secure, false),
            RtConfig::rest(Mode::Debug, true),
            RtConfig::rest(Mode::Debug, false),
            RtConfig::rest_perfect(true),
            RtConfig::rest_perfect(false),
            RtConfig::mte(MteMode::Sync),
            RtConfig::mte(MteMode::Async),
            RtConfig::mte(MteMode::Asymm),
            RtConfig::pa(),
        ];
        for cfg in all.clone() {
            let label = cfg.label();
            let parsed = RtConfig::from_label(&label)
                .unwrap_or_else(|| panic!("label {label:?} failed to parse"));
            assert_eq!(parsed, cfg, "round trip drifted for {label:?}");
            assert_eq!(parsed.label(), label);
        }
        // Labels must be pairwise distinct.
        let labels: Vec<String> = all.iter().map(RtConfig::label).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len(), "duplicate labels: {labels:?}");
    }

    #[test]
    fn stack_scheme_follows_scheme_and_scope() {
        for (label, on) in [
            ("plain", StackScheme::None),
            ("asan", StackScheme::Asan),
            ("pa", StackScheme::None),
            ("mte-sync", StackScheme::None),
            ("mte-async", StackScheme::None),
            ("mte-asymm", StackScheme::None),
            ("rest-secure-full", StackScheme::Rest),
            ("rest-secure-heap", StackScheme::Rest),
            ("rest-debug-full", StackScheme::Rest),
            ("rest-debug-heap", StackScheme::Rest),
            ("rest-perfecthw-full", StackScheme::Rest),
            ("rest-perfecthw-heap", StackScheme::Rest),
        ] {
            let rt = RtConfig::from_label(label).unwrap();
            let full = RtConfig {
                stack_protection: true,
                ..rt.clone()
            };
            let heap = RtConfig {
                stack_protection: false,
                ..rt
            };
            assert_eq!(full.stack_scheme(), on, "{label} with stack protection");
            assert_eq!(heap.stack_scheme(), StackScheme::None, "{label} without");
        }
    }

    #[test]
    fn from_label_rejects_unknown_labels() {
        for bad in [
            "", "rest", "rest-", "rest-secure", "rest-secure-", "rest-fast-full",
            "rest-secure-all", "mte", "mte-", "mte-sync-full", "pa-sync", "asan2",
        ] {
            assert!(RtConfig::from_label(bad).is_none(), "accepted {bad:?}");
        }
    }

    #[test]
    fn with_modifiers() {
        let c = RtConfig::rest(Mode::Secure, true)
            .with_token_width(TokenWidth::B16)
            .with_quarantine(4096);
        assert_eq!(c.token_width, TokenWidth::B16);
        assert_eq!(c.quarantine_bytes, 4096);
    }
}
