//! The fixpoint driver both abstract interpreters run on.
//!
//! The taint pass and the value-set analysis differ only in their
//! state and transfer function; both iterate block input states to a
//! fixpoint over the recovered blocks, then walk every block once more
//! to collect facts. Joins at a block input switch to widening after
//! [`WIDEN_AFTER`] of them, which only the value-set domain (with its
//! infinite-height intervals) acts on.

use std::collections::HashMap;

use cml_image::Addr;
use cml_vm::lift::{Abi, Lifted};

use crate::cfg::Function;

/// Joins at the same block input before widening kicks in.
const WIDEN_AFTER: u32 = 4;

/// An abstract state the driver can merge.
pub(crate) trait Lattice: Clone {
    /// Joins `other` in (widening when `widen`); returns whether
    /// anything changed.
    fn join_with(&mut self, other: &Self, widen: bool) -> bool;
}

/// The result of one function analysis.
pub(crate) struct Solution<S, F> {
    /// Post-state of every block (indexed like `f.blocks`), `None` for
    /// blocks the entry never reaches.
    pub exits: Vec<Option<S>>,
    /// Facts collected on the final pass.
    pub facts: F,
}

/// Runs `step` over `f` from `entry` to a fixpoint, then once more
/// collecting facts. `None` for a function without blocks.
pub(crate) fn solve<S: Lattice, F: Default>(
    f: &Function,
    entry: S,
    mut step: impl FnMut(&mut S, &Lifted, Option<&mut F>),
) -> Option<Solution<S, F>> {
    if f.blocks.is_empty() {
        return None;
    }
    let idx: HashMap<Addr, usize> = f
        .blocks
        .iter()
        .enumerate()
        .map(|(i, b)| (b.start, i))
        .collect();
    let n = f.blocks.len();

    let mut inputs: Vec<Option<S>> = vec![None; n];
    let mut joins: Vec<u32> = vec![0; n];
    inputs[0] = Some(entry);
    loop {
        let mut changed = false;
        for i in 0..n {
            let Some(mut st) = inputs[i].clone() else {
                continue;
            };
            for insn in &f.blocks[i].insns {
                step(&mut st, insn, None);
            }
            for succ in &f.blocks[i].succs {
                let Some(&j) = idx.get(succ) else { continue };
                match &mut inputs[j] {
                    slot @ None => {
                        *slot = Some(st.clone());
                        changed = true;
                    }
                    Some(existing) => {
                        joins[j] += 1;
                        changed |= existing.join_with(&st, joins[j] > WIDEN_AFTER);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut facts = F::default();
    let exits = inputs
        .into_iter()
        .zip(&f.blocks)
        .map(|(input, b)| {
            let mut st = input?;
            for insn in &b.insns {
                step(&mut st, insn, Some(&mut facts));
            }
            Some(st)
        })
        .collect();
    Some(Solution { exits, facts })
}

/// Writes `v` to register `dst`, unless `dst` is hardwired to zero.
pub(crate) fn write<T>(abi: &Abi, regs: &mut [T; 32], dst: u8, v: T) {
    if Some(dst) != abi.zero {
        regs[dst as usize] = v;
    }
}
