//! Bytecode optimizer: `O0` / `O1` / `O2` pipelines.
//!
//! Figure 9 (left) of the paper compares runtimes across compilers and
//! optimization levels; Chinchilla only works at `-O0`-style layouts while
//! TICS runs at any level. These pipelines provide the analogous axis:
//! `O1` adds constant folding and dead-code elimination, `O2` adds jump
//! threading and peephole rewrites.

use std::collections::BTreeSet;

use crate::isa::Instr;
use crate::program::{Function, Program};

/// Optimization level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum OptLevel {
    /// No optimization.
    O0,
    /// Constant folding + dead-code elimination.
    #[default]
    O1,
    /// `O1` plus jump threading and peephole rewrites.
    O2,
}

impl OptLevel {
    /// All levels, for sweeps.
    pub const ALL: [OptLevel; 3] = [OptLevel::O0, OptLevel::O1, OptLevel::O2];
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptLevel::O0 => write!(f, "O0"),
            OptLevel::O1 => write!(f, "O1"),
            OptLevel::O2 => write!(f, "O2"),
        }
    }
}

/// Optimizes a program in place.
pub fn optimize(prog: &mut Program, level: OptLevel) {
    optimize_with(prog, level, jump_targets);
}

/// [`optimize`] with every jump-target test answered by a scan of the
/// whole function, the optimizer's original rule. Kept as the oracle the
/// bitset of [`optimize`] is checked against: both must produce the same
/// code, byte for byte.
#[doc(hidden)]
pub fn optimize_by_scan(prog: &mut Program, level: OptLevel) {
    optimize_with(prog, level, |code| {
        (0..=code.len())
            .map(|idx| {
                code.iter().any(|i| {
                    i.jump_target() == Some(idx as u32)
                        || matches!(i, Instr::ExpiresBlockBegin(_, t) if *t == idx as u32)
                })
            })
            .collect()
    });
}

/// A jump-target set: `targets(code)[i]` says whether some instruction
/// of `code` jumps to index `i`.
type Targets = fn(&[Instr]) -> Vec<bool>;

fn optimize_with(prog: &mut Program, level: OptLevel, targets: Targets) {
    if level == OptLevel::O0 {
        return;
    }
    for f in &mut prog.functions {
        // A couple of rounds reach a fixpoint on this IR in practice.
        for _ in 0..3 {
            constant_fold(f, targets);
            if level >= OptLevel::O2 {
                thread_jumps(f);
                peephole(f, targets);
            }
            eliminate_dead_code(f);
        }
    }
}

/// Removes the instructions at `dead` indices, remapping every jump target
/// (including `ExpiresBlockBegin` catch targets). A target pointing at a
/// removed instruction is redirected to the next surviving one.
pub(crate) fn remove_instrs(code: &mut Vec<Instr>, dead: &BTreeSet<usize>) {
    if dead.is_empty() {
        return;
    }
    let mut map = vec![0u32; code.len() + 1];
    let mut new_idx = 0u32;
    for (old, m) in map.iter_mut().enumerate().take(code.len()) {
        *m = new_idx;
        if !dead.contains(&old) {
            new_idx += 1;
        }
    }
    map[code.len()] = new_idx;
    let mut out = Vec::with_capacity(code.len() - dead.len());
    for (i, instr) in code.iter().enumerate() {
        if dead.contains(&i) {
            continue;
        }
        let mut instr = *instr;
        if let Some(t) = instr.jump_target() {
            instr.set_jump_target(map[t as usize]);
        } else if let Instr::ExpiresBlockBegin(v, t) = instr {
            instr = Instr::ExpiresBlockBegin(v, map[t as usize]);
        }
        out.push(instr);
    }
    *code = out;
}

/// Inserts instructions before given positions, remapping jump targets.
/// `inserts` pairs an insertion index with the instruction to place there;
/// multiple inserts at one index keep their order. Jumps *to* an insertion
/// point land before the inserted code (so loop latches re-execute it —
/// that is what checkpoint-at-loop-head instrumentation wants).
pub(crate) fn insert_instrs(code: &mut Vec<Instr>, inserts: &[(usize, Instr)]) {
    if inserts.is_empty() {
        return;
    }
    let mut sorted: Vec<&(usize, Instr)> = inserts.iter().collect();
    sorted.sort_by_key(|(i, _)| *i);
    let mut shift_at = vec![0u32; code.len() + 1];
    for (i, _) in &sorted {
        shift_at[*i] += 1;
    }
    // prefix sums: how many instructions inserted before old index i.
    let mut map = vec![0u32; code.len() + 1];
    let mut acc = 0u32;
    for i in 0..=code.len() {
        acc += shift_at[i];
        map[i] = i as u32 + acc - shift_at[i];
    }
    let mut out = Vec::with_capacity(code.len() + sorted.len());
    let mut si = 0;
    for (i, instr) in code.iter().enumerate() {
        while si < sorted.len() && sorted[si].0 == i {
            out.push(sorted[si].1);
            si += 1;
        }
        let mut instr = *instr;
        if let Some(t) = instr.jump_target() {
            instr.set_jump_target(map[t as usize]);
        } else if let Instr::ExpiresBlockBegin(v, t) = instr {
            instr = Instr::ExpiresBlockBegin(v, map[t as usize]);
        }
        out.push(instr);
    }
    while si < sorted.len() {
        out.push(sorted[si].1);
        si += 1;
    }
    *code = out;
}

/// Marks every index of `code` that a branch or an `@expires` catch
/// jumps to, in one pass.
fn jump_targets(code: &[Instr]) -> Vec<bool> {
    let mut targets = vec![false; code.len() + 1];
    for i in code {
        let t = match *i {
            Instr::ExpiresBlockBegin(_, t) => Some(t),
            i => i.jump_target(),
        };
        if let Some(slot) = t.and_then(|t| targets.get_mut(t as usize)) {
            *slot = true;
        }
    }
    targets
}

// The rewriting passes make at most one rewrite per scan and restart
// after it, so a scan's jump-target set is computed once, before the
// scan, and stays exact for all of it.

fn constant_fold(f: &mut Function, targets: Targets) {
    loop {
        let mut dead = BTreeSet::new();
        let mut changed = false;
        let code = &mut f.code;
        let target = targets(code);
        for i in 0..code.len() {
            if i + 2 < code.len() && !target[i + 1] && !target[i + 2] {
                if let (Instr::Const(a), Instr::Const(b)) = (code[i], code[i + 1]) {
                    if let Some(v) = fold_binary(code[i + 2], a, b) {
                        code[i] = Instr::Const(v);
                        dead.insert(i + 1);
                        dead.insert(i + 2);
                        changed = true;
                        break;
                    }
                }
            }
            if i + 1 < code.len() && !target[i + 1] {
                if let Instr::Const(a) = code[i] {
                    match code[i + 1] {
                        Instr::Neg => {
                            code[i] = Instr::Const(a.wrapping_neg());
                            dead.insert(i + 1);
                            changed = true;
                            break;
                        }
                        Instr::BitNot => {
                            code[i] = Instr::Const(!a);
                            dead.insert(i + 1);
                            changed = true;
                            break;
                        }
                        Instr::LogNot => {
                            code[i] = Instr::Const(i32::from(a == 0));
                            dead.insert(i + 1);
                            changed = true;
                            break;
                        }
                        Instr::Jz(t) => {
                            if a == 0 {
                                code[i] = Instr::Jmp(t);
                                dead.insert(i + 1);
                            } else {
                                dead.insert(i);
                                dead.insert(i + 1);
                            }
                            changed = true;
                            break;
                        }
                        Instr::Jnz(t) => {
                            if a != 0 {
                                code[i] = Instr::Jmp(t);
                                dead.insert(i + 1);
                            } else {
                                dead.insert(i);
                                dead.insert(i + 1);
                            }
                            changed = true;
                            break;
                        }
                        Instr::Pop => {
                            dead.insert(i);
                            dead.insert(i + 1);
                            changed = true;
                            break;
                        }
                        _ => {}
                    }
                }
            }
        }
        if !changed {
            return;
        }
        remove_instrs(&mut f.code, &dead);
    }
}

fn fold_binary(op: Instr, a: i32, b: i32) -> Option<i32> {
    Some(match op {
        Instr::Add => a.wrapping_add(b),
        Instr::Sub => a.wrapping_sub(b),
        Instr::Mul => a.wrapping_mul(b),
        Instr::Div => a.checked_div(b)?,
        Instr::Mod => a.checked_rem(b)?,
        Instr::BitAnd => a & b,
        Instr::BitOr => a | b,
        Instr::BitXor => a ^ b,
        Instr::Shl => a.wrapping_shl(b as u32 & 31),
        Instr::Shr => a.wrapping_shr(b as u32 & 31),
        Instr::Eq => i32::from(a == b),
        Instr::Ne => i32::from(a != b),
        Instr::Lt => i32::from(a < b),
        Instr::Le => i32::from(a <= b),
        Instr::Gt => i32::from(a > b),
        Instr::Ge => i32::from(a >= b),
        _ => return None,
    })
}

fn thread_jumps(f: &mut Function) {
    // Jumps whose target is an unconditional jump follow the chain.
    let code = &mut f.code;
    for i in 0..code.len() {
        let Some(mut t) = code[i].jump_target() else {
            continue;
        };
        let mut hops = 0;
        while let Some(Instr::Jmp(next)) = code.get(t as usize) {
            if *next == t || hops > 8 {
                break; // self-loop guard
            }
            t = *next;
            hops += 1;
        }
        code[i].set_jump_target(t);
    }
    // Jmp to the immediately following instruction is a no-op.
    let mut dead = BTreeSet::new();
    for (i, instr) in code.iter().enumerate() {
        if let Instr::Jmp(t) = instr {
            if *t as usize == i + 1 {
                dead.insert(i);
            }
        }
    }
    remove_instrs(&mut f.code, &dead);
}

fn peephole(f: &mut Function, targets: Targets) {
    loop {
        let mut dead = BTreeSet::new();
        let code = &mut f.code;
        let target = targets(code);
        for i in 0..code.len().saturating_sub(1) {
            if target[i + 1] {
                continue;
            }
            match (code[i], code[i + 1]) {
                // Value produced then immediately discarded.
                (Instr::Dup, Instr::Pop)
                | (Instr::LoadLocal(_), Instr::Pop)
                | (Instr::LoadGlobal(_), Instr::Pop)
                | (Instr::AddrLocal(_), Instr::Pop)
                | (Instr::AddrGlobal(_), Instr::Pop) => {
                    dead.insert(i);
                    dead.insert(i + 1);
                }
                // Boolean negation absorbed into the branch.
                (Instr::LogNot, Instr::Jz(t)) => {
                    code[i] = Instr::Jnz(t);
                    dead.insert(i + 1);
                }
                (Instr::LogNot, Instr::Jnz(t)) => {
                    code[i] = Instr::Jz(t);
                    dead.insert(i + 1);
                }
                _ => {}
            }
            if !dead.is_empty() {
                break;
            }
        }
        if dead.is_empty() {
            return;
        }
        remove_instrs(&mut f.code, &dead);
    }
}

fn eliminate_dead_code(f: &mut Function) {
    // Reachability from instruction 0.
    let code = &f.code;
    let mut reachable = vec![false; code.len()];
    let mut stack = vec![0usize];
    while let Some(i) = stack.pop() {
        if i >= code.len() || reachable[i] {
            continue;
        }
        reachable[i] = true;
        let instr = &code[i];
        if let Some(t) = instr.jump_target() {
            stack.push(t as usize);
        }
        if let Instr::ExpiresBlockBegin(_, t) = instr {
            stack.push(*t as usize);
        }
        match instr {
            Instr::Jmp(_) | Instr::Ret | Instr::Halt => {}
            _ => stack.push(i + 1),
        }
    }
    let dead: BTreeSet<usize> = (0..code.len()).filter(|i| !reachable[*i]).collect();
    remove_instrs(&mut f.code, &dead);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::CkptSite;

    fn func(code: Vec<Instr>) -> Function {
        Function {
            name: "t".into(),
            n_args: 0,
            locals_bytes: 0,
            max_ostack: 4,
            code,
            entry_checked: false,
        }
    }

    #[test]
    fn folds_constant_arithmetic() {
        let mut f = func(vec![
            Instr::Const(6),
            Instr::Const(7),
            Instr::Mul,
            Instr::Ret,
        ]);
        constant_fold(&mut f, jump_targets);
        assert_eq!(f.code, vec![Instr::Const(42), Instr::Ret]);
    }

    #[test]
    fn folds_constant_branches() {
        let mut f = func(vec![
            Instr::Const(1),
            Instr::Jz(4),
            Instr::Const(10),
            Instr::Ret,
            Instr::Const(20),
            Instr::Ret,
        ]);
        constant_fold(&mut f, jump_targets);
        eliminate_dead_code(&mut f);
        assert_eq!(f.code, vec![Instr::Const(10), Instr::Ret]);
    }

    #[test]
    fn removes_unreachable_code() {
        let mut f = func(vec![
            Instr::Const(0),
            Instr::Ret,
            Instr::Const(99),
            Instr::Ret,
        ]);
        eliminate_dead_code(&mut f);
        assert_eq!(f.code.len(), 2);
    }

    #[test]
    fn keeps_catch_targets_alive() {
        let mut f = func(vec![
            Instr::ExpiresBlockBegin(0, 4),
            Instr::ExpiresBlockEnd,
            Instr::Const(0),
            Instr::Ret,
            Instr::Const(7), // catch handler — reachable only via runtime
            Instr::Ret,
        ]);
        eliminate_dead_code(&mut f);
        assert_eq!(f.code.len(), 6);
    }

    #[test]
    fn remove_instrs_remaps_targets() {
        let mut code = vec![
            Instr::Jmp(3),
            Instr::Pop, // dead
            Instr::Pop, // dead
            Instr::Ret,
        ];
        remove_instrs(&mut code, &BTreeSet::from([1, 2]));
        assert_eq!(code, vec![Instr::Jmp(1), Instr::Ret]);
    }

    #[test]
    fn remove_instrs_redirects_into_removed_region() {
        let mut code = vec![
            Instr::Jmp(1),
            Instr::Pop, // dead — jump should land on next survivor
            Instr::Ret,
        ];
        remove_instrs(&mut code, &BTreeSet::from([1]));
        assert_eq!(code, vec![Instr::Jmp(1), Instr::Ret]);
    }

    #[test]
    fn insert_instrs_shifts_targets() {
        let mut code = vec![Instr::Const(1), Instr::Jz(3), Instr::Const(2), Instr::Ret];
        insert_instrs(&mut code, &[(2, Instr::Checkpoint(CkptSite::Auto))]);
        assert_eq!(
            code,
            vec![
                Instr::Const(1),
                Instr::Jz(4),
                Instr::Checkpoint(CkptSite::Auto),
                Instr::Const(2),
                Instr::Ret,
            ]
        );
    }

    #[test]
    fn insert_at_jump_target_lands_before_insert() {
        // Backward jump to index 1; inserting at 1 must keep the loop
        // re-executing the inserted instruction.
        let mut code = vec![Instr::Const(0), Instr::Dup, Instr::Jnz(1), Instr::Ret];
        insert_instrs(&mut code, &[(1, Instr::Checkpoint(CkptSite::Auto))]);
        assert_eq!(code[1], Instr::Checkpoint(CkptSite::Auto));
        assert_eq!(code[3], Instr::Jnz(1));
    }

    #[test]
    fn peephole_removes_dup_pop() {
        let mut f = func(vec![Instr::Const(5), Instr::Dup, Instr::Pop, Instr::Ret]);
        peephole(&mut f, jump_targets);
        assert_eq!(f.code, vec![Instr::Const(5), Instr::Ret]);
    }

    #[test]
    fn peephole_fuses_lognot_branch() {
        let mut f = func(vec![
            Instr::LoadGlobal(0),
            Instr::LogNot,
            Instr::Jz(4),
            Instr::Const(1),
            Instr::Ret,
        ]);
        peephole(&mut f, jump_targets);
        assert_eq!(f.code[1], Instr::Jnz(3));
    }

    #[test]
    fn jump_threading_collapses_chains() {
        let mut f = func(vec![
            Instr::Jz(2),
            Instr::Ret,
            Instr::Jmp(4),
            Instr::Ret,
            Instr::Const(0),
            Instr::Ret,
        ]);
        thread_jumps(&mut f);
        assert_eq!(f.code[0], Instr::Jz(4));
    }

    #[test]
    fn o2_shrinks_constant_heavy_code() {
        use crate::{compile, opt::OptLevel};
        let src = "int main() { int x = 2 * 3 + 4; if (1) { x = x + 0 * 5; } return x; }";
        let o0 = compile(src, OptLevel::O0).unwrap();
        let o2 = compile(src, OptLevel::O2).unwrap();
        assert!(o2.text_bytes() < o0.text_bytes());
    }
}
