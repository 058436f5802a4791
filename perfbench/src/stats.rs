//! Order statistics over latency samples, and the bounded reservoir that collects them.

use crate::gen::SplitMix64;

/// Minimum number of samples that must lie beyond a reported percentile: a tail
/// percentile read from fewer points is a guess about one or two operations.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `sorted` (ascending), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie above its rank.
pub fn percentile(sorted: &[u32], q: f64) -> Option<u32> {
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    // 1-based nearest rank; the samples with a higher rank are the ones "beyond" it.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of `values` (mean of the middle pair for even lengths), `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// A fixed-capacity uniform sample of a stream (Vitter's Algorithm R): memory stays
/// bounded however long the stream runs, and every offered item is equally likely to be
/// kept.
#[derive(Debug)]
pub struct Reservoir<T> {
    items: Vec<T>,
    capacity: usize,
    seen: u64,
    rng: SplitMix64,
}

impl<T> Reservoir<T> {
    pub fn new(capacity: usize, seed: u64) -> Self {
        Reservoir {
            items: Vec::with_capacity(capacity),
            capacity,
            seen: 0,
            rng: SplitMix64::new(seed),
        }
    }

    #[inline]
    pub fn offer(&mut self, item: T) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else {
            let slot = self.rng.below(self.seen) as usize;
            if slot < self.capacity {
                self.items[slot] = item;
            }
        }
    }

    pub fn items(&self) -> &[T] {
        &self.items
    }

    pub fn into_items(self) -> Vec<T> {
        self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let thousand: Vec<u32> = (1..=1000).collect();
        // rank 990 leaves exactly 10 samples above it.
        assert_eq!(percentile(&thousand, 0.99), Some(990));
        let short: Vec<u32> = (1..=999).collect();
        assert_eq!(percentile(&short, 0.99), None);
        assert_eq!(percentile(&short[..100], 0.5), Some(50));
        assert_eq!(percentile(&short[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
