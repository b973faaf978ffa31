//! The analyst's query mix: catalog picks with Zipf(1.2) popularity and
//! ad-hoc lookups, half and half.
//!
//! Draws come in blocks. Each block holds every catalog query exactly as
//! often as its Zipf share of the block says (largest-remainder rounding)
//! and the next lookups of a shuffled pass over the ad-hoc pool, in a
//! seeded random order. Exact per-block counts keep the rare, expensive
//! catalog queries (the anomaly query) from swinging a run's throughput
//! with sampling luck; the seed still decides the order.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws per block.
pub const BLOCK: usize = 1000;
/// Zipf exponent of catalog popularity.
const ZIPF_S: f64 = 1.2;

/// One draw: a catalog entry or an ad-hoc lookup, by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Draw {
    Catalog(usize),
    Adhoc(usize),
}

/// How many of `total` draws each of `n` ranks gets under Zipf(s).
pub fn zipf_counts(n: usize, total: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = total - counts.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        counts[i] += 1;
    }
    counts
}

/// Endless block-structured draw sequence.
pub struct Mix {
    rng: StdRng,
    catalog: Vec<usize>,
    adhoc_len: usize,
    adhoc_pass: Vec<usize>,
    block: Vec<Draw>,
}

fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

impl Mix {
    pub fn new(catalog_len: usize, adhoc_len: usize, seed: u64) -> Self {
        let adhoc_share = if adhoc_len == 0 { 0 } else { BLOCK / 2 };
        let catalog = zipf_counts(catalog_len, BLOCK - adhoc_share)
            .into_iter()
            .enumerate()
            .flat_map(|(i, c)| std::iter::repeat_n(i, c))
            .collect();
        Mix {
            rng: StdRng::seed_from_u64(seed),
            catalog,
            adhoc_len,
            adhoc_pass: Vec::new(),
            block: Vec::new(),
        }
    }

    fn next_adhoc(&mut self) -> usize {
        if self.adhoc_pass.is_empty() {
            self.adhoc_pass = (0..self.adhoc_len).collect();
            shuffle(&mut self.rng, &mut self.adhoc_pass);
        }
        self.adhoc_pass.pop().expect("non-empty ad-hoc pool")
    }

    /// The next block of [`BLOCK`] draws.
    pub fn next_block(&mut self) -> Vec<Draw> {
        let mut block = std::mem::take(&mut self.block);
        block.clear();
        block.extend(self.catalog.iter().map(|&i| Draw::Catalog(i)));
        for _ in block.len()..BLOCK {
            let i = self.next_adhoc();
            block.push(Draw::Adhoc(i));
        }
        shuffle(&mut self.rng, &mut block);
        self.block = block.clone();
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_counts_sum_and_skew() {
        let c = zipf_counts(45, 500);
        assert_eq!(c.iter().sum::<usize>(), 500);
        assert!(c.windows(2).all(|w| w[0] >= w[1]));
        assert!(c[0] > 100 && c[44] >= 1);
    }

    #[test]
    fn blocks_are_seeded_and_exact() {
        let a: Vec<Vec<Draw>> = {
            let mut m = Mix::new(45, 512, 9);
            (0..3).map(|_| m.next_block()).collect()
        };
        let mut m = Mix::new(45, 512, 9);
        assert_eq!(a[0], m.next_block());
        assert_ne!(a[0], Mix::new(45, 512, 10).next_block());
        for block in &a {
            assert_eq!(block.len(), BLOCK);
            let anomaly = block.iter().filter(|d| **d == Draw::Catalog(14)).count();
            assert_eq!(anomaly, zipf_counts(45, BLOCK / 2)[14]);
        }
        // Lookups come in passes over the whole pool: no repeats within
        // the first block, every lookup by the end of the second.
        let adhoc = |b: &[Draw]| -> Vec<usize> {
            b.iter()
                .filter_map(|d| match d {
                    Draw::Adhoc(i) => Some(*i),
                    _ => None,
                })
                .collect()
        };
        let first: std::collections::HashSet<_> = adhoc(&a[0]).into_iter().collect();
        assert_eq!(first.len(), BLOCK / 2);
        let both: std::collections::HashSet<_> =
            adhoc(&a[0]).into_iter().chain(adhoc(&a[1])).collect();
        assert_eq!(both.len(), 512);
    }
}
