//! Output verification: every cell checks its structure's final state against what its
//! workers observed, and a cell that fails a check counts all its operations as failed.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::gen::value_of;

/// What one map worker observed.
#[derive(Debug, Default, Clone, Copy)]
pub struct MapTally {
    pub inserted: u64,
    pub deleted: u64,
    /// Searches that returned a value other than the key's own.
    pub wrong_values: u64,
}

impl MapTally {
    pub fn add(&mut self, o: &MapTally) {
        self.inserted += o.inserted;
        self.deleted += o.deleted;
        self.wrong_values += o.wrong_values;
    }
}

/// Checks a map after its workers stopped.  `len` is the structure's own count and
/// `present` every `(key, value)` a lookup over the whole key range found.
pub fn verify_map(
    prefilled: u64,
    tally: &MapTally,
    len: usize,
    present: &[(u64, u64)],
) -> Result<(), String> {
    if tally.wrong_values != 0 {
        return Err(format!("{} searches returned a wrong value", tally.wrong_values));
    }
    let expected = (prefilled + tally.inserted).checked_sub(tally.deleted);
    if expected != Some(len as u64) {
        return Err(format!(
            "len {len} != prefill {prefilled} + inserts {} - deletes {}",
            tally.inserted, tally.deleted
        ));
    }
    if present.len() != len {
        return Err(format!("{} keys found by lookup but len is {len}", present.len()));
    }
    if let Some((k, v)) = present.iter().find(|(k, v)| *v != value_of(*k)) {
        return Err(format!("key {k} maps to {v:#x}, not its own value {:#x}", value_of(*k)));
    }
    Ok(())
}

/// Queue values carry their producer in the high bits and its sequence number below.
const SEQ_BITS: u32 = 40;

pub fn encode(producer: usize, seq: u64) -> u64 {
    ((producer as u64) << SEQ_BITS) | seq
}

fn decode(value: u64) -> (usize, u64) {
    ((value >> SEQ_BITS) as usize, value & ((1 << SEQ_BITS) - 1))
}

/// The queue's shared record of dequeued values: one bit per (producer, sequence).
/// Producers stop at `per_producer` values, which bounds the bitmap.
#[derive(Debug)]
pub struct QueueLedger {
    producers: usize,
    per_producer: u64,
    bits: Vec<AtomicU64>,
}

impl QueueLedger {
    pub fn new(producers: usize, per_producer: u64) -> Self {
        let words = producers * per_producer.div_ceil(64) as usize;
        QueueLedger {
            producers,
            per_producer,
            bits: std::iter::repeat_with(|| AtomicU64::new(0)).take(words).collect(),
        }
    }

    pub fn per_producer(&self) -> u64 {
        self.per_producer
    }

    fn bit(&self, producer: usize, seq: u64) -> (usize, u64) {
        let words = self.per_producer.div_ceil(64) as usize;
        (producer * words + (seq / 64) as usize, 1 << (seq % 64))
    }

    /// Checks, after every value is drained, that exactly the first `pushed[p]` values
    /// of every producer were dequeued.
    fn check_complete(&self, pushed: &[u64]) -> Result<(), String> {
        let words = self.per_producer.div_ceil(64);
        for (p, &n) in pushed.iter().enumerate() {
            for w in 0..words {
                let base = w * 64;
                let expected = match n.saturating_sub(base) {
                    0 => 0,
                    k if k >= 64 => u64::MAX,
                    k => (1 << k) - 1,
                };
                let actual = self.bits[p * words as usize + w as usize].load(Ordering::Relaxed);
                let diff = actual ^ expected;
                if diff != 0 {
                    let seq = base + diff.trailing_zeros() as u64;
                    return Err(if actual & diff != 0 {
                        format!("value {seq} of producer {p} dequeued but never enqueued")
                    } else {
                        format!("value {seq} of producer {p} lost (enqueued, never dequeued)")
                    });
                }
            }
        }
        Ok(())
    }
}

/// What one consumer observed: it checks FIFO order per producer as it goes and marks
/// each value in the shared ledger, which catches a value dequeued twice.
#[derive(Debug, Clone)]
pub struct Consumer {
    /// Last sequence seen per producer, plus one (0 = none yet).
    last: Vec<u64>,
    pub popped: u64,
    pub fifo_violations: u64,
    pub duplicates: u64,
    pub invalid: u64,
}

impl Consumer {
    pub fn new(producers: usize) -> Self {
        Consumer {
            last: vec![0; producers],
            popped: 0,
            fifo_violations: 0,
            duplicates: 0,
            invalid: 0,
        }
    }

    #[inline]
    pub fn consume(&mut self, ledger: &QueueLedger, value: u64) {
        self.popped += 1;
        let (p, seq) = decode(value);
        if p >= ledger.producers || seq >= ledger.per_producer {
            self.invalid += 1;
            return;
        }
        if seq < self.last[p] {
            self.fifo_violations += 1;
        }
        self.last[p] = seq + 1;
        let (w, mask) = ledger.bit(p, seq);
        if ledger.bits[w].fetch_or(mask, Ordering::Relaxed) & mask != 0 {
            self.duplicates += 1;
        }
    }
}

/// Checks a queue: `len` (read before the drain) must equal pushes − pops, the
/// consumers (the final drain included) must have seen no duplicate, reordered or
/// unknown value, and every pushed value must have come out exactly once.
pub fn verify_queue(
    ledger: &QueueLedger,
    pushed: &[u64],
    consumers: &[Consumer],
    popped_before_drain: u64,
    len_before_drain: usize,
) -> Result<(), String> {
    let total_pushed: u64 = pushed.iter().sum();
    if total_pushed.checked_sub(popped_before_drain) != Some(len_before_drain as u64) {
        return Err(format!(
            "len {len_before_drain} != pushes {total_pushed} - pops {popped_before_drain}"
        ));
    }
    let sum = |f: fn(&Consumer) -> u64| consumers.iter().map(f).sum::<u64>();
    let (dups, fifo, invalid) =
        (sum(|c| c.duplicates), sum(|c| c.fifo_violations), sum(|c| c.invalid));
    if dups + fifo + invalid != 0 {
        return Err(format!(
            "{dups} values dequeued twice, {fifo} FIFO-order violations, {invalid} unknown values"
        ));
    }
    ledger.check_complete(pushed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good_map() -> (MapTally, Vec<(u64, u64)>) {
        let tally = MapTally { inserted: 3, deleted: 1, wrong_values: 0 };
        let present = (0..4).map(|k| (k, value_of(k))).collect();
        (tally, present)
    }

    #[test]
    fn clean_map_passes() {
        let (tally, present) = good_map();
        assert_eq!(verify_map(2, &tally, 4, &present), Ok(()));
    }

    #[test]
    fn map_miscount_is_flagged() {
        let (mut tally, present) = good_map();
        tally.inserted += 1;
        assert!(verify_map(2, &tally, 4, &present).unwrap_err().contains("len 4"));
        let (tally, present) = good_map();
        assert!(verify_map(2, &tally, 4, &present[..3]).is_err());
    }

    #[test]
    fn map_wrong_value_is_flagged() {
        let (tally, mut present) = good_map();
        present[2].1 ^= 1;
        assert!(verify_map(2, &tally, 4, &present).unwrap_err().contains("key 2"));
        let (mut tally, present) = good_map();
        tally.wrong_values = 1;
        assert!(verify_map(2, &tally, 4, &present).is_err());
    }

    /// Two producers push 0..5 each; one consumer pops them all in order.
    fn drained(values: &[u64]) -> (QueueLedger, Consumer) {
        let ledger = QueueLedger::new(2, 100);
        let mut c = Consumer::new(2);
        for &v in values {
            c.consume(&ledger, v);
        }
        (ledger, c)
    }

    fn all_values() -> Vec<u64> {
        (0..5).flat_map(|s| [encode(0, s), encode(1, s)]).collect()
    }

    #[test]
    fn clean_queue_passes() {
        let (ledger, c) = drained(&all_values());
        assert_eq!(verify_queue(&ledger, &[5, 5], &[c], 4, 6), Ok(()));
    }

    #[test]
    fn duplicated_dequeue_is_flagged() {
        let mut values = all_values();
        values.insert(3, values[2]);
        let (ledger, c) = drained(&values);
        assert!(verify_queue(&ledger, &[5, 5], &[c], 4, 6)
            .unwrap_err()
            .contains("1 values dequeued twice"));
        // The same value seen by two different consumers is also a duplicate.
        let (ledger, c) = drained(&all_values());
        let mut other = Consumer::new(2);
        other.consume(&ledger, encode(1, 4));
        assert!(verify_queue(&ledger, &[5, 5], &[c, other], 4, 6).is_err());
    }

    #[test]
    fn reordered_lost_and_unknown_values_are_flagged() {
        let mut values = all_values();
        values.swap(0, 2);
        let (ledger, c) = drained(&values);
        assert!(verify_queue(&ledger, &[5, 5], &[c], 4, 6).unwrap_err().contains("FIFO"));
        let (ledger, c) = drained(&all_values()[..9]);
        assert!(verify_queue(&ledger, &[5, 5], &[c], 4, 6).unwrap_err().contains("lost"));
        let mut values = all_values();
        values.push(encode(7, 0));
        let (ledger, c) = drained(&values);
        assert!(verify_queue(&ledger, &[5, 5], &[c], 4, 6).is_err());
    }

    #[test]
    fn queue_miscount_is_flagged() {
        let (ledger, c) = drained(&all_values());
        assert!(verify_queue(&ledger, &[5, 5], &[c], 4, 7).unwrap_err().contains("len 7"));
    }
}
