use rest_isa::{Component, EcallNum, MemSize};

use crate::alloc::Heap;
use crate::config::RtConfig;
use crate::env::RtEnv;
use crate::layout::STATIC_BASE;
use crate::shadow;
use crate::violation::{AsanReport, Violation};

/// Result of dispatching one `ecall`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcallOutcome {
    /// Service completed; value to place in `a0`.
    Done(u64),
    /// Program requested termination with this exit code.
    Exit(i32),
    /// The service detected a memory-safety violation.
    Violation(Violation),
}

/// The guest runtime: allocator + libc models behind the `ecall`
/// interface.
///
/// One `Runtime` exists per simulated program run. The emulator passes
/// each `ecall` here along with an [`RtEnv`] giving access to guest
/// memory and the traffic recorder; all work the runtime performs is
/// recorded as micro-ops and charged to the simulated pipeline.
#[derive(Debug)]
pub struct Runtime {
    cfg: RtConfig,
    heap: Heap,
    output: Vec<u8>,
    sbrk: u64,
    /// Intercepted libc calls that performed range checks.
    intercept_checks: u64,
}

impl Runtime {
    /// Builds the runtime for `cfg`, over the heap its scheme runs on.
    pub fn new(cfg: RtConfig) -> Runtime {
        Runtime {
            heap: Heap::new(&cfg),
            cfg,
            output: Vec::new(),
            sbrk: STATIC_BASE,
            intercept_checks: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &RtConfig {
        &self.cfg
    }

    /// The heap allocator (for stats inspection).
    pub fn allocator(&self) -> &Heap {
        &self.heap
    }

    /// Bytes the program wrote via `PutChar`.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// Number of intercepted libc calls that were range-checked.
    pub fn intercept_checks(&self) -> u64 {
        self.intercept_checks
    }

    /// Dispatches one `ecall`. `args` are the values of `a0..a5`.
    pub fn ecall(&mut self, num: EcallNum, args: [u64; 6], env: &mut RtEnv<'_>) -> EcallOutcome {
        match num {
            EcallNum::Malloc => self.do_malloc(env, args[0]),
            EcallNum::Free => match self.do_free(env, args[0]) {
                Ok(()) => EcallOutcome::Done(0),
                Err(v) => EcallOutcome::Violation(v),
            },
            EcallNum::Calloc => {
                let bytes = args[0].saturating_mul(args[1]);
                match self.do_malloc(env, bytes) {
                    EcallOutcome::Done(ptr) if ptr != 0 => {
                        match self.as_allocator(env, |rt, env| rt.copy_fill(env, ptr, 0, bytes)) {
                            Ok(()) => EcallOutcome::Done(ptr),
                            Err(v) => EcallOutcome::Violation(v),
                        }
                    }
                    other => other,
                }
            }
            EcallNum::Realloc => self.do_realloc(env, args[0], args[1]),
            EcallNum::Memcpy => match self.do_memcpy(env, args[0], args[1], args[2]) {
                Ok(()) => EcallOutcome::Done(args[0]),
                Err(v) => EcallOutcome::Violation(v),
            },
            EcallNum::Memset => {
                if self.cfg.intercept_libc {
                    if let Err(v) = self.intercept_range_check(env, args[0], args[2]) {
                        return EcallOutcome::Violation(v);
                    }
                }
                match self.copy_fill(env, args[0], args[1] as u8, args[2]) {
                    Ok(()) => EcallOutcome::Done(args[0]),
                    Err(v) => EcallOutcome::Violation(v),
                }
            }
            EcallNum::Exit => EcallOutcome::Exit(args[0] as i32),
            EcallNum::PutChar => {
                self.output.push(args[0] as u8);
                EcallOutcome::Done(0)
            }
            EcallNum::Sbrk => {
                let old = self.sbrk;
                self.sbrk += args[0];
                EcallOutcome::Done(old)
            }
        }
    }

    /// Runs `f` with the traffic it records charged to
    /// [`Component::Allocator`]: every allocator entry (malloc, free,
    /// calloc's zero fill) goes through here.
    fn as_allocator<'a, T>(
        &mut self,
        env: &mut RtEnv<'a>,
        f: impl FnOnce(&mut Runtime, &mut RtEnv<'a>) -> T,
    ) -> T {
        let prev = env.rec.set_component(Component::Allocator);
        let r = f(self, env);
        env.rec.set_component(prev);
        r
    }

    fn do_malloc(&mut self, env: &mut RtEnv<'_>, size: u64) -> EcallOutcome {
        match self.as_allocator(env, |rt, env| rt.heap.malloc(env, size)) {
            Ok(ptr) => {
                if ptr != 0 {
                    let len = self.heap.usable_size(ptr).unwrap_or(size).max(size);
                    env.note_alloc_site(ptr, len);
                }
                EcallOutcome::Done(ptr)
            }
            Err(v) => EcallOutcome::Violation(v),
        }
    }

    fn do_realloc(&mut self, env: &mut RtEnv<'_>, ptr: u64, new_size: u64) -> EcallOutcome {
        if ptr == 0 {
            return self.do_malloc(env, new_size);
        }
        let old = self.heap.usable_size(ptr).unwrap_or(new_size);
        let new_ptr = match self.do_malloc(env, new_size) {
            EcallOutcome::Done(p) if p != 0 => p,
            other => return other,
        };
        if let Err(v) = self.copy_words(env, new_ptr, ptr, old.min(new_size)) {
            return EcallOutcome::Violation(v);
        }
        match self.do_free(env, ptr) {
            Ok(()) => EcallOutcome::Done(new_ptr),
            Err(v) => EcallOutcome::Violation(v),
        }
    }

    fn do_free(&mut self, env: &mut RtEnv<'_>, ptr: u64) -> Result<(), Violation> {
        env.note_free_site(ptr);
        self.as_allocator(env, |rt, env| rt.heap.free(env, ptr))
    }

    fn do_memcpy(
        &mut self,
        env: &mut RtEnv<'_>,
        dst: u64,
        src: u64,
        len: u64,
    ) -> Result<(), Violation> {
        if self.cfg.intercept_libc {
            self.intercept_range_check(env, src, len)?;
            self.intercept_range_check(env, dst, len)?;
        }
        self.copy_words(env, dst, src, len)
    }

    /// The ASan libc-interception model (overhead component 4): before a
    /// data-movement call runs, its argument range is validated against
    /// shadow memory — one shadow load per 64 app bytes, attributed to
    /// [`Component::ApiIntercept`].
    fn intercept_range_check(
        &mut self,
        env: &mut RtEnv<'_>,
        addr: u64,
        len: u64,
    ) -> Result<(), Violation> {
        if len == 0 {
            return Ok(());
        }
        self.intercept_checks += 1;
        let prev = env.rec.set_component(Component::ApiIntercept);
        env.rec.alu(2);
        let mut a = addr;
        while a < addr + len {
            env.rec.load(crate::layout::shadow_addr(a), 8);
            a += 64;
        }
        env.rec.set_component(prev);
        if let Err(kind) = shadow::classify_access(env.mem, addr, len) {
            return Err(Violation::Asan(AsanReport {
                kind,
                addr,
                size: len,
                pc: env.guest_pc,
            }));
        }
        Ok(())
    }

    /// Word-wise copy loop with recorded, scheme-checked accesses.
    fn copy_words(
        &mut self,
        env: &mut RtEnv<'_>,
        dst: u64,
        src: u64,
        len: u64,
    ) -> Result<(), Violation> {
        let mut i = 0;
        while i < len {
            let step = (len - i).min(8);
            let size = size_for(step);
            let v = env.checked_load(src + i, size)?;
            env.checked_store(dst + i, v, size)?;
            i += size.bytes();
        }
        Ok(())
    }

    /// Word-wise fill loop with recorded, scheme-checked stores.
    fn copy_fill(
        &mut self,
        env: &mut RtEnv<'_>,
        dst: u64,
        byte: u8,
        len: u64,
    ) -> Result<(), Violation> {
        let word = u64::from_le_bytes([byte; 8]);
        let mut i = 0;
        while i < len {
            let step = (len - i).min(8);
            let size = size_for(step);
            env.checked_store(dst + i, word, size)?;
            i += size.bytes();
        }
        Ok(())
    }
}

fn size_for(step: u64) -> MemSize {
    match step {
        8.. => MemSize::B8,
        4..=7 => MemSize::B4,
        2..=3 => MemSize::B2,
        _ => MemSize::B1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rest_core::{Mode, ProtectionBackend, Token};
    use rest_isa::GuestMemory;

    use crate::traffic::TrafficRecorder;
    use crate::violation::AsanReportKind;

    struct Fx {
        mem: GuestMemory,
        rec: TrafficRecorder,
        backend: Box<dyn ProtectionBackend>,
        token: Token,
        cfg: RtConfig,
    }

    impl Fx {
        fn new(cfg: RtConfig) -> Fx {
            let mut rng = StdRng::seed_from_u64(77);
            Fx {
                mem: GuestMemory::new(),
                rec: TrafficRecorder::new(),
                backend: cfg.build_backend(77),
                token: Token::generate(cfg.token_width, &mut rng),
                cfg,
            }
        }

        fn env(&mut self) -> RtEnv<'_> {
            RtEnv {
                mem: &mut self.mem,
                rec: &mut self.rec,
                backend: &mut *self.backend,
                token: &self.token,
                check_backend: self.cfg.checks_in_backend(),
                check_shadow: false,
                perfect_hw: self.cfg.perfect_hw,
                naive_wide_arm: false,
                guest_pc: 0,
                sites: None,
            }
        }
    }

    fn call(rt: &mut Runtime, fx: &mut Fx, num: EcallNum, args: [u64; 6]) -> EcallOutcome {
        let mut env = fx.env();
        rt.ecall(num, args, &mut env)
    }

    #[test]
    fn malloc_free_round_trip_all_schemes() {
        for cfg in [
            RtConfig::plain(),
            RtConfig::asan(),
            RtConfig::rest(Mode::Secure, true),
        ] {
            let mut fx = Fx::new(cfg.clone());
            let mut rt = Runtime::new(cfg.clone());
            let p = match call(&mut rt, &mut fx, EcallNum::Malloc, [128, 0, 0, 0, 0, 0]) {
                EcallOutcome::Done(p) => p,
                other => panic!("{cfg:?}: {other:?}"),
            };
            assert_ne!(p, 0);
            assert_eq!(
                call(&mut rt, &mut fx, EcallNum::Free, [p, 0, 0, 0, 0, 0]),
                EcallOutcome::Done(0)
            );
            assert_eq!(rt.allocator().stats().allocs, 1);
            assert_eq!(rt.allocator().stats().frees, 1);
        }
    }

    #[test]
    fn memcpy_copies_and_memset_fills() {
        let cfg = RtConfig::plain();
        let mut fx = Fx::new(cfg.clone());
        let mut rt = Runtime::new(cfg);
        fx.mem.write_bytes(0x8000, b"hello world!!");
        assert_eq!(
            call(
                &mut rt,
                &mut fx,
                EcallNum::Memcpy,
                [0x9000, 0x8000, 13, 0, 0, 0]
            ),
            EcallOutcome::Done(0x9000)
        );
        assert!(fx.mem.bytes_equal(0x9000, b"hello world!!"));
        assert_eq!(
            call(
                &mut rt,
                &mut fx,
                EcallNum::Memset,
                [0x9000, 0x2a, 5, 0, 0, 0]
            ),
            EcallOutcome::Done(0x9000)
        );
        assert!(fx.mem.bytes_equal(0x9000, &[0x2a; 5]));
        assert!(fx.mem.bytes_equal(0x9005, b" world!!"));
    }

    #[test]
    fn rest_memcpy_over_redzone_raises_hardware_violation() {
        // The Heartbleed pattern: an over-long memcpy from a heap buffer
        // runs into the right redzone token.
        let cfg = RtConfig::rest(Mode::Secure, false);
        let mut fx = Fx::new(cfg.clone());
        let mut rt = Runtime::new(cfg);
        let p = match call(&mut rt, &mut fx, EcallNum::Malloc, [64, 0, 0, 0, 0, 0]) {
            EcallOutcome::Done(p) => p,
            other => panic!("{other:?}"),
        };
        let out = call(
            &mut rt,
            &mut fx,
            EcallNum::Memcpy,
            [0x9000, p, 4096, 0, 0, 0],
        );
        assert!(
            matches!(out, EcallOutcome::Violation(Violation::Rest(_))),
            "{out:?}"
        );
    }

    #[test]
    fn asan_intercept_catches_overlong_memcpy_before_copying() {
        let cfg = RtConfig::asan();
        let mut fx = Fx::new(cfg.clone());
        let mut rt = Runtime::new(cfg);
        let p = match call(&mut rt, &mut fx, EcallNum::Malloc, [64, 0, 0, 0, 0, 0]) {
            EcallOutcome::Done(p) => p,
            other => panic!("{other:?}"),
        };
        let out = call(
            &mut rt,
            &mut fx,
            EcallNum::Memcpy,
            [0x9000, p, 4096, 0, 0, 0],
        );
        assert!(
            matches!(
                out,
                EcallOutcome::Violation(Violation::Asan(r))
                    if r.kind == AsanReportKind::HeapRedzone
            ),
            "{out:?}"
        );
        assert_eq!(rt.intercept_checks(), 1);
    }

    #[test]
    fn plain_memcpy_over_bounds_silently_succeeds() {
        // The unprotected baseline lets the over-read through — this is
        // the vulnerable behaviour REST exists to stop.
        let cfg = RtConfig::plain();
        let mut fx = Fx::new(cfg.clone());
        let mut rt = Runtime::new(cfg);
        let p = match call(&mut rt, &mut fx, EcallNum::Malloc, [64, 0, 0, 0, 0, 0]) {
            EcallOutcome::Done(p) => p,
            other => panic!("{other:?}"),
        };
        let out = call(
            &mut rt,
            &mut fx,
            EcallNum::Memcpy,
            [0x9000, p, 4096, 0, 0, 0],
        );
        assert_eq!(out, EcallOutcome::Done(0x9000));
    }

    #[test]
    fn calloc_zeroes_and_realloc_preserves() {
        let cfg = RtConfig::rest(Mode::Secure, true);
        let mut fx = Fx::new(cfg.clone());
        let mut rt = Runtime::new(cfg);
        let p = match call(&mut rt, &mut fx, EcallNum::Calloc, [4, 8, 0, 0, 0, 0]) {
            EcallOutcome::Done(p) => p,
            other => panic!("{other:?}"),
        };
        assert!(fx.mem.bytes_equal(p, &[0u8; 32]));
        fx.mem.write_u64(p, 0x1234_5678);
        let q = match call(&mut rt, &mut fx, EcallNum::Realloc, [p, 128, 0, 0, 0, 0]) {
            EcallOutcome::Done(q) => q,
            other => panic!("{other:?}"),
        };
        assert_ne!(p, q);
        assert_eq!(fx.mem.read_u64(q), 0x1234_5678);
    }

    #[test]
    fn sbrk_bumps_and_putchar_collects() {
        let cfg = RtConfig::plain();
        let mut fx = Fx::new(cfg.clone());
        let mut rt = Runtime::new(cfg);
        let a = match call(&mut rt, &mut fx, EcallNum::Sbrk, [100, 0, 0, 0, 0, 0]) {
            EcallOutcome::Done(a) => a,
            other => panic!("{other:?}"),
        };
        assert_eq!(a, STATIC_BASE);
        let b = match call(&mut rt, &mut fx, EcallNum::Sbrk, [0, 0, 0, 0, 0, 0]) {
            EcallOutcome::Done(b) => b,
            other => panic!("{other:?}"),
        };
        assert_eq!(b, STATIC_BASE + 100);
        call(
            &mut rt,
            &mut fx,
            EcallNum::PutChar,
            [b'h' as u64, 0, 0, 0, 0, 0],
        );
        call(
            &mut rt,
            &mut fx,
            EcallNum::PutChar,
            [b'i' as u64, 0, 0, 0, 0, 0],
        );
        assert_eq!(rt.output(), b"hi");
    }

    #[test]
    fn exit_propagates_code() {
        let cfg = RtConfig::plain();
        let mut fx = Fx::new(cfg.clone());
        let mut rt = Runtime::new(cfg);
        assert_eq!(
            call(&mut rt, &mut fx, EcallNum::Exit, [3, 0, 0, 0, 0, 0]),
            EcallOutcome::Exit(3)
        );
    }
}
