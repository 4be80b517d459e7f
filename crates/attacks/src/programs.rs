//! Guest programs for the attack scenarios.
//!
//! Every program plants [`SECRET`](crate::SECRET) somewhere an attacker
//! should not be able to read, triggers its bug, and attempts to
//! exfiltrate what it read through `PutChar` — so leak detection is
//! end-to-end, not inferred.

use rest_core::TokenWidth;
use rest_isa::{EcallNum, MemSize, Program, ProgramBuilder, Reg};
use rest_runtime::{FrameGuard, StackScheme};

use crate::SECRET;

fn secret_imm() -> i64 {
    i64::from_le_bytes(*SECRET)
}

fn startup(stack: StackScheme) -> (ProgramBuilder, FrameGuard) {
    let guard = FrameGuard::new(stack, TokenWidth::B64);
    let mut p = ProgramBuilder::new();
    guard.emit_startup(&mut p);
    (p, guard)
}

fn exit0(mut p: ProgramBuilder) -> Program {
    p.li(Reg::A0, 0);
    p.ecall(EcallNum::Exit);
    p.build()
}

/// Emits: `putchar` every byte of `[base, base+len)`. Clobbers
/// `A0`, `A7`, `T0`, `T1`.
fn exfil_region(p: &mut ProgramBuilder, base: Reg, len: i64) {
    p.li(Reg::T0, 0);
    let lp = p.label_here();
    p.add(Reg::T1, base, Reg::T0);
    p.load(Reg::A0, Reg::T1, 0, MemSize::B1);
    p.ecall(EcallNum::PutChar);
    p.addi(Reg::T0, Reg::T0, 1);
    p.li(Reg::T1, len);
    p.blt(Reg::T0, Reg::T1, lp);
}

/// Listing 1: benign request buffer, adjacent secrets, and a `memcpy`
/// whose length the attacker controls.
pub fn heartbleed() -> Program {
    let (mut p, _) = startup(StackScheme::None);
    // Request buffer (the benign payload).
    p.li(Reg::A0, 64);
    p.ecall(EcallNum::Malloc);
    p.mv(Reg::S0, Reg::A0);
    // Fill it with 'A' via its own stores (in-bounds, must not trip).
    p.li(Reg::T2, b'A' as i64);
    p.li(Reg::T0, 0);
    let fill = p.label_here();
    p.add(Reg::T1, Reg::S0, Reg::T0);
    p.store(Reg::T2, Reg::T1, 0, MemSize::B1);
    p.addi(Reg::T0, Reg::T0, 1);
    p.li(Reg::T1, 64);
    p.blt(Reg::T0, Reg::T1, fill);
    // Sensitive data (keys, credentials) allocated next.
    p.li(Reg::A0, 64);
    p.ecall(EcallNum::Malloc);
    p.mv(Reg::S1, Reg::A0);
    p.li(Reg::T0, secret_imm());
    p.sd(Reg::T0, Reg::S1, 0);
    // Response buffer.
    p.li(Reg::A0, 4096);
    p.ecall(EcallNum::Malloc);
    p.mv(Reg::S2, Reg::A0);
    // The bug: attacker-controlled payload length of 2048.
    p.mv(Reg::A0, Reg::S2);
    p.mv(Reg::A1, Reg::S0);
    p.li(Reg::A2, 2048);
    p.ecall(EcallNum::Memcpy);
    // Send the "response" to the client.
    exfil_region(&mut p, Reg::S2, 2048);
    exit0(p)
}

/// Linear heap overflow write: walks stores past the end of a 64-byte
/// allocation (the sweeping pattern tripwires are designed for).
pub fn heap_overflow_write() -> Program {
    let (mut p, _) = startup(StackScheme::None);
    p.li(Reg::A0, 64);
    p.ecall(EcallNum::Malloc);
    p.mv(Reg::S0, Reg::A0);
    p.li(Reg::T0, 0);
    let lp = p.label_here();
    p.add(Reg::T1, Reg::S0, Reg::T0);
    p.sd(Reg::T0, Reg::T1, 0);
    p.addi(Reg::T0, Reg::T0, 8);
    p.li(Reg::T1, 512);
    p.blt(Reg::T0, Reg::T1, lp);
    exit0(p)
}

/// Stack-buffer overflow inside a protected frame.
pub fn stack_overflow(stack: StackScheme) -> Program {
    let (mut p, guard) = startup(stack);
    let f = p.new_label();
    let done = p.new_label();
    p.call(f);
    p.j(done);
    p.bind(f);
    let layout = guard.layout(&[16], 16);
    let boff = layout.buffers[0].offset as i64;
    guard.emit_prologue(&mut p, &layout);
    p.sd(Reg::RA, Reg::SP, 0);
    // The bug: write 0..160 bytes into a 16-byte buffer.
    p.li(Reg::T0, 0);
    let lp = p.label_here();
    p.addi(Reg::T1, Reg::SP, boff);
    p.add(Reg::T1, Reg::T1, Reg::T0);
    p.store(Reg::T0, Reg::T1, 0, MemSize::B1);
    p.addi(Reg::T0, Reg::T0, 1);
    p.li(Reg::T1, 160);
    p.blt(Reg::T0, Reg::T1, lp);
    p.ld(Reg::RA, Reg::SP, 0);
    guard.emit_epilogue(&mut p, &layout);
    p.ret();
    p.bind(done);
    exit0(p)
}

/// Use-after-free read of a freed secret-holding chunk.
pub fn use_after_free() -> Program {
    let (mut p, _) = startup(StackScheme::None);
    p.li(Reg::A0, 64);
    p.ecall(EcallNum::Malloc);
    p.mv(Reg::S0, Reg::A0);
    p.li(Reg::T0, secret_imm());
    p.sd(Reg::T0, Reg::S0, 0);
    p.mv(Reg::A0, Reg::S0);
    p.ecall(EcallNum::Free);
    // Dangling read + exfiltration.
    exfil_region(&mut p, Reg::S0, 8);
    exit0(p)
}

/// Double free, followed by the aliasing exploitation it enables on a
/// plain allocator.
pub fn double_free() -> Program {
    let (mut p, _) = startup(StackScheme::None);
    p.li(Reg::A0, 64);
    p.ecall(EcallNum::Malloc);
    p.mv(Reg::S0, Reg::A0);
    p.mv(Reg::A0, Reg::S0);
    p.ecall(EcallNum::Free);
    p.mv(Reg::A0, Reg::S0);
    p.ecall(EcallNum::Free); // hardened allocators stop here
                             // Plain allocator: the corrupted bin now hands out the same chunk
                             // twice; "two" objects alias.
    p.li(Reg::A0, 64);
    p.ecall(EcallNum::Malloc);
    p.mv(Reg::S1, Reg::A0); // victim object
    p.li(Reg::A0, 64);
    p.ecall(EcallNum::Malloc);
    p.mv(Reg::S2, Reg::A0); // attacker object — same address
    p.li(Reg::T0, secret_imm());
    p.sd(Reg::T0, Reg::S1, 0); // victim writes its secret
    exfil_region(&mut p, Reg::S2, 8); // attacker reads it back
    exit0(p)
}

/// §V-C false negative: overread just past a 100-byte allocation. Under
/// 64 B tokens the pad runs to byte 128, so a 16-byte read at offset 100
/// stays inside the (zeroed) pad and goes undetected; under 16 B tokens
/// the pad ends at byte 112 and the same read hits a token. Nothing
/// leaks either way.
pub fn padding_gap_overread() -> Program {
    let (mut p, _) = startup(StackScheme::None);
    p.li(Reg::A0, 100);
    p.ecall(EcallNum::Malloc);
    p.mv(Reg::S0, Reg::A0);
    // A secret elsewhere on the heap (must stay unreachable).
    p.li(Reg::A0, 64);
    p.ecall(EcallNum::Malloc);
    p.li(Reg::T0, secret_imm());
    p.sd(Reg::T0, Reg::A0, 0);
    // Overread 16 bytes at offset 100: inside the 64 B-token pad, but
    // crossing the 16 B-token boundary at offset 112.
    p.addi(Reg::S1, Reg::S0, 100);
    exfil_region(&mut p, Reg::S1, 16);
    exit0(p)
}

/// §V-C brute-force disarm: the attacker controls a disarm gadget but
/// not the knowledge of which locations are armed; the first disarm of
/// an unarmed location raises.
pub fn brute_force_disarm() -> Program {
    let (mut p, _) = startup(StackScheme::None);
    // Defender arms one slot of a mapped region.
    p.li(Reg::A0, 1024);
    p.ecall(EcallNum::Sbrk);
    p.mv(Reg::S0, Reg::A0);
    // Align to the token width.
    p.addi(Reg::S0, Reg::S0, 63);
    p.li(Reg::T0, !63i64);
    p.and(Reg::S0, Reg::S0, Reg::T0);
    p.arm(Reg::S0);
    // Attacker sweeps disarms from an offset it guesses.
    p.addi(Reg::S1, Reg::S0, 64);
    p.li(Reg::T0, 8);
    let lp = p.label_here();
    p.disarm(Reg::S1); // unarmed -> REST exception
    p.addi(Reg::S1, Reg::S1, 64);
    p.addi(Reg::T0, Reg::T0, -1);
    p.bne(Reg::T0, Reg::ZERO, lp);
    exit0(p)
}

/// Uninitialised-data leak through allocator reuse: a freed
/// secret-holding chunk is recycled into a fresh allocation that the
/// attacker reads without writing.
pub fn uninit_leak() -> Program {
    let (mut p, _) = startup(StackScheme::None);
    // Victim: secret in a 64-byte chunk, then freed.
    p.li(Reg::A0, 64);
    p.ecall(EcallNum::Malloc);
    p.mv(Reg::S0, Reg::A0);
    p.li(Reg::T0, secret_imm());
    p.sd(Reg::T0, Reg::S0, 0);
    p.mv(Reg::A0, Reg::S0);
    p.ecall(EcallNum::Free);
    // Attacker: allocate the same size class and read it uninitialised.
    // (The harness shrinks the quarantine so reuse happens immediately.)
    p.li(Reg::A0, 64);
    p.ecall(EcallNum::Malloc);
    p.mv(Reg::S1, Reg::A0);
    exfil_region(&mut p, Reg::S1, 8);
    exit0(p)
}

/// §V-C predictability weakness: the attacker jumps *over* the redzones
/// by probing at the allocator's (discoverable) chunk stride, reading the
/// user areas of neighbouring allocations without ever touching a token.
/// Works against plain, ASan, and unsprinkled REST; decoy-token
/// sprinkling breaks the stride lattice.
pub fn jump_over_redzone() -> Program {
    let (mut p, _) = startup(StackScheme::None);
    // A row of same-size allocations; the 6th holds the secret.
    // ptrs[0] -> S0, ptrs[1] -> S2 (to compute the stride), ptrs[6] -> S3.
    for i in 0..8 {
        p.li(Reg::A0, 64);
        p.ecall(EcallNum::Malloc);
        match i {
            0 => {
                p.mv(Reg::S0, Reg::A0);
            }
            1 => {
                p.mv(Reg::S2, Reg::A0);
            }
            6 => {
                p.mv(Reg::S3, Reg::A0);
            }
            _ => {}
        }
    }
    p.li(Reg::T0, secret_imm());
    p.sd(Reg::T0, Reg::S3, 0);
    // Attacker: stride = ptrs[1] - ptrs[0] (heap feng shui), then probe
    // victim + k*stride for k = 1..8, exfiltrating each probe.
    p.sub(Reg::S4, Reg::S2, Reg::S0);
    p.li(Reg::S5, 1);
    let probe = p.label_here();
    p.mul(Reg::T1, Reg::S4, Reg::S5);
    p.add(Reg::S1, Reg::S0, Reg::T1);
    exfil_region(&mut p, Reg::S1, 8);
    p.addi(Reg::S5, Reg::S5, 1);
    p.li(Reg::T0, 9);
    p.blt(Reg::S5, Reg::T0, probe);
    exit0(p)
}
