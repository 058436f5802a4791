//! The benchmark's own seeded load generator.
//!
//! Every worker draws its operations from a private SplitMix64 stream derived from
//! `(seed, stream)`, so the same seed yields the same operation streams and the library
//! crates never see anything but the generated calls.

/// A SplitMix64 stream (Steele, Lea and Flood): one add and two multiply-xorshifts per
/// draw, full period 2^64, and good enough mixing that consecutive seeds give unrelated
/// streams.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw uniform over `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// ranges used here).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// The seed of stream `stream` under the run seed `seed`.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut mix = SplitMix64::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    mix.next_u64()
}

/// One generated operation.  Map workloads use `Insert`/`Delete`/`Search` on keys;
/// the queue workload uses `Insert` for enqueue and `Delete` for dequeue (key unused).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Insert(u64),
    Delete(u64),
    Search(u64),
}

impl Op {
    /// Index of the operation kind (0 insert/enqueue, 1 delete/dequeue, 2 search).
    pub fn kind(&self) -> usize {
        match self {
            Op::Insert(_) => 0,
            Op::Delete(_) => 1,
            Op::Search(_) => 2,
        }
    }
}

/// An operation mix in percent; `search_pct` is the remainder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    pub insert_pct: u64,
    pub delete_pct: u64,
}

/// A worker's operation stream: uniform keys over `0..key_range` and the given mix.
#[derive(Debug, Clone)]
pub struct OpGen {
    rng: SplitMix64,
    mix: Mix,
    key_range: u64,
}

impl OpGen {
    pub fn new(seed: u64, stream: u64, mix: Mix, key_range: u64) -> Self {
        OpGen { rng: SplitMix64::new(stream_seed(seed, stream)), mix, key_range }
    }

    #[inline]
    pub fn next_op(&mut self) -> Op {
        let r = self.rng.next_u64();
        let roll = ((r as u32 as u64) * 100) >> 32;
        let key = (((r >> 32) * self.key_range) >> 32).min(self.key_range - 1);
        if roll < self.mix.insert_pct {
            Op::Insert(key)
        } else if roll < self.mix.insert_pct + self.mix.delete_pct {
            Op::Delete(key)
        } else {
            Op::Search(key)
        }
    }

    /// A key alone (prefill draws).
    #[inline]
    pub fn next_key(&mut self) -> u64 {
        self.rng.below(self.key_range)
    }
}

/// The value a map stores under `key`; verification checks every present key maps to it.
#[inline]
pub fn value_of(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5851_F42D_4C95_7F2D
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix { insert_pct: 5, delete_pct: 5 };

    fn stream(seed: u64, worker: u64, n: usize) -> Vec<Op> {
        let mut g = OpGen::new(seed, worker, MIX, 200_000);
        (0..n).map(|_| g.next_op()).collect()
    }

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(stream(7, 0, 10_000), stream(7, 0, 10_000));
        assert_eq!(stream(7, 3, 10_000), stream(7, 3, 10_000));
    }

    #[test]
    fn different_seed_or_worker_different_stream() {
        assert_ne!(stream(7, 0, 1_000), stream(8, 0, 1_000));
        assert_ne!(stream(7, 0, 1_000), stream(7, 1, 1_000));
    }

    #[test]
    fn mix_and_key_range_hold() {
        let ops = stream(11, 0, 200_000);
        let inserts = ops.iter().filter(|o| matches!(o, Op::Insert(_))).count();
        let deletes = ops.iter().filter(|o| matches!(o, Op::Delete(_))).count();
        // 5% ± 0.3% of 200k draws.
        assert!((9_400..10_600).contains(&inserts), "inserts {inserts}");
        assert!((9_400..10_600).contains(&deletes), "deletes {deletes}");
        assert!(ops.iter().all(|o| match o {
            Op::Insert(k) | Op::Delete(k) | Op::Search(k) => *k < 200_000,
        }));
    }
}
