//! Crash triage: stable deduplication keys and input minimization.

use cml_vm::Fault;

/// Rounds an overflow extent up to a power of two, so "overflowed by
/// 277 bytes" and "overflowed by 312 bytes" triage to the same site
/// while an order-of-magnitude difference does not.
fn extent_bucket(extent: u32) -> u32 {
    extent.max(1).next_power_of_two()
}

/// A stable, human-readable deduplication key for a fault.
///
/// Sanitizer findings key on the fault *site* — buffer address, pc of
/// the offending store, and the extent's power-of-two bucket — so a
/// thousand inputs that all overflow the same `parse_response` buffer
/// collapse into one crash. Other faults key on their kind and pc.
pub fn crash_key(fault: &Fault) -> String {
    match fault {
        Fault::RedzoneViolation {
            buffer, pc, extent, ..
        } => format!(
            "redzone-{buffer:08x}-pc{pc:08x}-x{:x}",
            extent_bucket(*extent)
        ),
        Fault::UnmappedRead { pc, .. } => format!("unmapped-read-pc{pc:08x}"),
        Fault::UnmappedWrite { pc, .. } => format!("unmapped-write-pc{pc:08x}"),
        Fault::UnmappedFetch { pc } => format!("unmapped-fetch-pc{pc:08x}"),
        Fault::ProtectedRead { pc, .. } => format!("protected-read-pc{pc:08x}"),
        Fault::ProtectedWrite { pc, .. } => format!("protected-write-pc{pc:08x}"),
        Fault::NxViolation { pc, .. } => format!("nx-pc{pc:08x}"),
        Fault::IllegalInstruction { pc, .. } => format!("illegal-insn-pc{pc:08x}"),
        Fault::UnalignedFetch { pc } => format!("unaligned-fetch-pc{pc:08x}"),
        Fault::UnknownSyscall { pc, .. } => format!("unknown-syscall-pc{pc:08x}"),
        Fault::CfiViolation { pc, .. } => format!("cfi-pc{pc:08x}"),
        Fault::CanarySmashed { .. } => "canary-smashed".to_string(),
        Fault::StepLimit { .. } => "step-limit".to_string(),
        other => format!("fault-pc{:08x}", other.pc().unwrap_or(0)),
    }
}

/// Deterministic ddmin-style minimization: repeatedly tries dropping
/// chunks (halves, then quarters, down to single bytes) and keeps any
/// reduction that still reproduces `same_crash`. `same_crash` is called
/// once per candidate, so the caller can count those executions against
/// its budget; minimization stops early when `same_crash` starts
/// returning `None` budget-out signals.
pub fn minimize<F>(input: &[u8], mut same_crash: F) -> Vec<u8>
where
    F: FnMut(&[u8]) -> Option<bool>,
{
    let mut best = input.to_vec();
    // One scratch buffer for every candidate: a reduction swaps it with
    // `best`, so the loop allocates nothing after these two.
    let mut candidate = Vec::with_capacity(best.len());
    let mut chunk = (best.len() / 2).max(1);
    while chunk >= 1 {
        let mut offset = 0usize;
        let mut reduced = false;
        while offset < best.len() && best.len() > 1 {
            let end = (offset + chunk).min(best.len());
            candidate.clear();
            candidate.extend_from_slice(&best[..offset]);
            candidate.extend_from_slice(&best[end..]);
            if candidate.is_empty() {
                offset = end;
                continue;
            }
            match same_crash(&candidate) {
                Some(true) => {
                    std::mem::swap(&mut best, &mut candidate);
                    reduced = true;
                    // Re-test from the same offset against the shorter input.
                }
                Some(false) => offset = end,
                None => return best, // budget exhausted
            }
        }
        if chunk == 1 && !reduced {
            break;
        }
        chunk /= 2;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redzone_keys_bucket_extent() {
        let a = Fault::RedzoneViolation {
            buffer: 0x8100,
            capacity: 1024,
            first: 0x8500,
            extent: 277,
            pc: 0x1234,
        };
        let b = Fault::RedzoneViolation {
            buffer: 0x8100,
            capacity: 1024,
            first: 0x8520,
            extent: 300,
            pc: 0x1234,
        };
        let c = Fault::RedzoneViolation {
            buffer: 0x8100,
            capacity: 1024,
            first: 0x8500,
            extent: 3000,
            pc: 0x1234,
        };
        assert_eq!(crash_key(&a), crash_key(&b), "same pow2 bucket");
        assert_ne!(crash_key(&a), crash_key(&c), "different magnitude");
    }

    #[test]
    fn distinct_sites_get_distinct_keys() {
        let w = Fault::UnmappedWrite { addr: 0x10, pc: 5 };
        let r = Fault::UnmappedRead { addr: 0x10, pc: 5 };
        assert_ne!(crash_key(&w), crash_key(&r));
    }

    #[test]
    fn minimize_strips_irrelevant_bytes() {
        // Crash iff the input still contains byte 0x2A.
        let input: Vec<u8> = (0..64u8).collect();
        let out = minimize(&input, |c| Some(c.contains(&0x2A)));
        assert_eq!(out, vec![0x2A]);
    }

    /// `minimize` as it was before the candidate buffer was reused: a
    /// fresh `Vec` per candidate. The candidate sequence must not move.
    fn minimize_fresh_buffers<F>(input: &[u8], mut same_crash: F) -> Vec<u8>
    where
        F: FnMut(&[u8]) -> Option<bool>,
    {
        let mut best = input.to_vec();
        let mut chunk = (best.len() / 2).max(1);
        while chunk >= 1 {
            let mut offset = 0usize;
            let mut reduced = false;
            while offset < best.len() && best.len() > 1 {
                let end = (offset + chunk).min(best.len());
                let mut candidate = Vec::with_capacity(best.len());
                candidate.extend_from_slice(&best[..offset]);
                candidate.extend_from_slice(&best[end..]);
                if candidate.is_empty() {
                    offset = end;
                    continue;
                }
                match same_crash(&candidate) {
                    Some(true) => {
                        best = candidate;
                        reduced = true;
                    }
                    Some(false) => offset = end,
                    None => return best,
                }
            }
            if chunk == 1 && !reduced {
                break;
            }
            chunk /= 2;
        }
        best
    }

    #[test]
    fn reused_buffer_keeps_the_candidate_sequence() {
        // Predicates of different shapes: a needle, a length floor, a
        // byte-sum parity, and a budget that runs out mid-way.
        type Pred = fn(&[u8], usize) -> Option<bool>;
        type Minimizer = fn(&[u8], &mut dyn FnMut(&[u8]) -> Option<bool>) -> Vec<u8>;
        let preds: [Pred; 4] = [
            |c, _| Some(c.contains(&0x2A)),
            |c, _| Some(c.len() >= 37),
            |c, _| Some(c.iter().map(|&b| b as u32).sum::<u32>() % 3 == 0),
            |c, n| (n < 40).then_some(c.len() > 5),
        ];
        let inputs: [Vec<u8>; 4] = [
            (0..64u8).collect(),
            (0..200u32).map(|i| (i * 7 % 251) as u8).collect(),
            vec![0x2A; 3],
            vec![9],
        ];
        for pred in preds {
            for input in &inputs {
                let record = |min: Minimizer| {
                    let mut seen: Vec<Vec<u8>> = Vec::new();
                    let out = min(input, &mut |c| {
                        seen.push(c.to_vec());
                        pred(c, seen.len() - 1)
                    });
                    (out, seen)
                };
                let got = record(|i, f| minimize(i, f));
                let want = record(|i, f| minimize_fresh_buffers(i, f));
                assert_eq!(got, want, "input {input:?}");
            }
        }
    }

    #[test]
    fn minimize_respects_budget() {
        let input = vec![7u8; 32];
        let mut calls = 0;
        let out = minimize(&input, |_| {
            calls += 1;
            if calls > 3 {
                None
            } else {
                Some(false)
            }
        });
        assert_eq!(out, input, "no successful reduction before budget-out");
    }
}
