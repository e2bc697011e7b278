//! Synthetic token→expert assignment matrices.
//!
//! The simulation engines need only the *histogram* of tokens each worker
//! sends to each expert. Real gates produce imbalanced histograms (paper
//! §3.1 cites [24]); this module generates balanced and skewed variants
//! with a seeded RNG so experiments are reproducible.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

/// How skewed the expert popularity distribution is.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Imbalance {
    /// Every expert receives exactly `T/experts` tokens from each worker
    /// (the paper's lower-bound case for expert-centric communication).
    Balanced,
    /// Expert popularity follows a Zipf distribution with this exponent;
    /// tokens are assigned by multinomial sampling. `Zipf(0.0)` is uniform
    /// in expectation, `Zipf(1.2)` is heavily hot-expert skewed.
    Zipf(f64),
}

/// `counts[w][e]` = tokens worker `w` routes to global expert `e` in one
/// MoE block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssignmentMatrix {
    /// Token counts per (worker, expert).
    pub counts: Vec<Vec<usize>>,
}

/// Buckets of the draw space searched by [`SlotSampler`]; a power of two,
/// so a bucket is the top 12 bits of a draw.
const BUCKETS: usize = 1 << 12;
/// Bits of a draw below its bucket index.
const BUCKET_SHIFT: u32 = u64::BITS - BUCKETS.trailing_zeros();
/// Tags a [`SlotSampler`] entry whose bucket holds a CDF boundary.
const SCAN: u32 = 1 << 31;

/// Inverse-CDF lookup in the integer domain of the draw.
///
/// A draw is `x = next_u64()`. Its top 53 bits, `m = x >> 11`, are the
/// integer the `rand` shim's `random::<f64>()` scales by 2⁻⁵³. For
/// `u = m · 2⁻⁵³` the sampler returns exactly
/// `p(u) = cdf.partition_point(|&c| c < u).min(len − 1)` for a
/// nondecreasing `cdf`, so it draws the same slots as a binary search over
/// `random::<f64>()`. Bucket `k = x >> 52` is `⌊u · BUCKETS⌋` exactly.
///
/// Let `start[k]` be the partition point at `k / BUCKETS`, the least `u`
/// of bucket `k`, and `start[BUCKETS]` the one at `1.0`. The predicate
/// `c < u` only gains entries as `u` grows, and so does `min(·, len − 1)`,
/// so every `u` of bucket `k` has
/// `min(start[k], len − 1) ≤ p(u) ≤ min(start[k + 1], len − 1)`.
/// - When the two ends are equal the bucket is *direct*: every draw in it
///   takes that slot, with no float and no read of `cdf`. The clamp makes
///   every bucket with `start[k] ≥ len − 1` direct, such as the last one
///   when the final CDF entry rounds to just below 1.0.
/// - Otherwise a forward scan from `start[k]` while `cdf[i] < u` lands on
///   the index the binary search finds. Each such bucket raises `p` by at
///   least one, so at most `len − 1` of the buckets scan.
struct SlotSampler {
    /// `cdf` followed by `+inf`, which ends every forward scan.
    bounds: Vec<f64>,
    /// Per bucket: the slot of a direct bucket, or `SCAN | start[k]`.
    entry: Box<[u32; BUCKETS]>,
}

impl SlotSampler {
    fn new(cdf: Vec<f64>) -> Self {
        assert!(cdf.len() <= SCAN as usize, "too many experts");
        let last = cdf.len() as u32 - 1;
        let mut bounds = cdf;
        bounds.push(f64::INFINITY);
        let mut i = 0;
        let start: Vec<u32> = (0..=BUCKETS)
            .map(|k| {
                let lo = k as f64 / BUCKETS as f64;
                while bounds[i] < lo {
                    i += 1;
                }
                i as u32
            })
            .collect();
        let entry: Box<[u32; BUCKETS]> = start
            .windows(2)
            .map(|w| {
                let (lo, hi) = (w[0].min(last), w[1].min(last));
                if lo == hi {
                    lo
                } else {
                    SCAN | w[0]
                }
            })
            .collect::<Vec<u32>>()
            .try_into()
            .expect("one entry per bucket");
        SlotSampler { bounds, entry }
    }

    /// Popularity slot of the draw `x`.
    #[inline]
    fn slot(&self, x: u64) -> usize {
        let e = self.entry[(x >> BUCKET_SHIFT) as usize];
        if e & SCAN == 0 {
            return e as usize;
        }
        let u = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let mut i = (e & !SCAN) as usize;
        while self.bounds[i] < u {
            i += 1;
        }
        i.min(self.bounds.len() - 2)
    }
}

impl AssignmentMatrix {
    /// Generate an assignment of `tokens_per_worker` token slots from each
    /// of `workers` workers over `experts` experts.
    pub fn generate(
        workers: usize,
        experts: usize,
        tokens_per_worker: usize,
        imbalance: Imbalance,
        seed: u64,
    ) -> Self {
        assert!(workers > 0 && experts > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let counts = match imbalance {
            Imbalance::Balanced => {
                let base = tokens_per_worker / experts;
                let rem = tokens_per_worker % experts;
                (0..workers)
                    .map(|_| (0..experts).map(|e| base + usize::from(e < rem)).collect())
                    .collect()
            }
            Imbalance::Zipf(s) => {
                // Shared expert popularity across workers: hot experts are
                // hot everywhere, which is what gates produce in practice.
                let weights: Vec<f64> = (1..=experts)
                    .map(|rank| 1.0 / (rank as f64).powf(s))
                    .collect();
                // Randomly permute which expert gets which popularity rank.
                let mut perm: Vec<usize> = (0..experts).collect();
                for i in (1..experts).rev() {
                    perm.swap(i, rng.random_range(0..=i));
                }
                let total: f64 = weights.iter().sum();
                let cdf: Vec<f64> = weights
                    .iter()
                    .scan(0.0, |acc, w| {
                        *acc += w / total;
                        Some(*acc)
                    })
                    .collect();
                let sampler = SlotSampler::new(cdf);
                // Two interleaved histograms per slot, one for even and one
                // for odd draws: back-to-back draws of the hot slot bump
                // different counters, so neither waits on the other's store.
                let mut hist = vec![[0usize; 2]; experts];
                (0..workers)
                    .map(|_| {
                        hist.fill([0; 2]);
                        for _ in 0..tokens_per_worker / 2 {
                            let even = sampler.slot(rng.next_u64());
                            let odd = sampler.slot(rng.next_u64());
                            hist[even][0] += 1;
                            hist[odd][1] += 1;
                        }
                        if tokens_per_worker % 2 == 1 {
                            hist[sampler.slot(rng.next_u64())][0] += 1;
                        }
                        let mut row = vec![0usize; experts];
                        for (slot, [even, odd]) in hist.iter().enumerate() {
                            row[perm[slot]] = even + odd;
                        }
                        row
                    })
                    .collect()
            }
        };
        AssignmentMatrix { counts }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.counts.len()
    }

    /// Number of experts.
    pub fn experts(&self) -> usize {
        self.counts.first().map_or(0, Vec::len)
    }

    /// Tokens worker `w` routes to expert `e`.
    pub fn tokens(&self, w: usize, e: usize) -> usize {
        self.counts[w][e]
    }

    /// Total tokens arriving at `expert` across all workers.
    pub fn expert_load(&self, expert: usize) -> usize {
        self.counts.iter().map(|row| row[expert]).sum()
    }

    /// Total tokens emitted by `worker`.
    pub fn worker_tokens(&self, worker: usize) -> usize {
        self.counts[worker].iter().sum()
    }

    /// Ratio of the busiest expert's load to the mean load — 1.0 when
    /// perfectly balanced. The paper's All-to-All latency is governed by
    /// this factor.
    pub fn imbalance_factor(&self) -> f64 {
        let experts = self.experts();
        if experts == 0 {
            return 1.0;
        }
        let loads: Vec<usize> = (0..experts).map(|e| self.expert_load(e)).collect();
        let max = *loads.iter().max().unwrap() as f64;
        let mean = loads.iter().sum::<usize>() as f64 / experts as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference sampler: one binary search of the CDF per token, counted
    /// straight into the permuted row.
    fn generate_reference(
        workers: usize,
        experts: usize,
        tokens_per_worker: usize,
        s: f64,
        seed: u64,
    ) -> AssignmentMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<f64> = (1..=experts)
            .map(|rank| 1.0 / (rank as f64).powf(s))
            .collect();
        let mut perm: Vec<usize> = (0..experts).collect();
        for i in (1..experts).rev() {
            perm.swap(i, rng.random_range(0..=i));
        }
        let total: f64 = weights.iter().sum();
        let cdf: Vec<f64> = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        let counts = (0..workers)
            .map(|_| {
                let mut row = vec![0usize; experts];
                for _ in 0..tokens_per_worker {
                    let u: f64 = rng.random();
                    let slot = cdf.partition_point(|&c| c < u).min(experts - 1);
                    row[perm[slot]] += 1;
                }
                row
            })
            .collect();
        AssignmentMatrix { counts }
    }

    proptest! {
        /// The table-driven sampler is the binary search, draw for draw.
        #[test]
        fn table_sampler_matches_binary_search(
            workers in 1usize..5,
            experts in 1usize..80,
            tokens in 0usize..600,
            s in 0.0f64..3.0,
            seed in 0u64..u64::MAX,
        ) {
            prop_assert_eq!(
                AssignmentMatrix::generate(workers, experts, tokens, Imbalance::Zipf(s), seed),
                generate_reference(workers, experts, tokens, s, seed)
            );
        }

        /// The same on steep, wide popularity curves: the CDF reaches 1.0
        /// before its last slot, and many boundaries share one bucket.
        #[test]
        fn table_sampler_matches_binary_search_on_steep_wide_cdfs(
            workers in 1usize..4,
            experts in 1usize..=300,
            tokens in 0usize..600,
            s in 0.0f64..8.0,
            seed in 0u64..u64::MAX,
        ) {
            prop_assert_eq!(
                AssignmentMatrix::generate(workers, experts, tokens, Imbalance::Zipf(s), seed),
                generate_reference(workers, experts, tokens, s, seed)
            );
        }

        /// Draws at both ends of every bucket and on either side of every
        /// CDF entry land in the slot the binary search picks for
        /// `u = m · 2⁻⁵³`, and at most `experts − 1` buckets scan.
        #[test]
        fn slot_sampler_matches_partition_point_at_bucket_edges(
            experts in 1usize..=300,
            s in 0.0f64..8.0,
        ) {
            let weights: Vec<f64> = (1..=experts)
                .map(|rank| 1.0 / (rank as f64).powf(s))
                .collect();
            let total: f64 = weights.iter().sum();
            let cdf: Vec<f64> = weights
                .iter()
                .scan(0.0, |acc, w| {
                    *acc += w / total;
                    Some(*acc)
                })
                .collect();
            let sampler = SlotSampler::new(cdf.clone());
            let scans = sampler.entry.iter().filter(|&&e| e & SCAN != 0).count();
            prop_assert!(scans < experts, "{} scanning buckets", scans);
            let mut probes: Vec<u64> = (0..BUCKETS as u64)
                .flat_map(|k| [k << 41, (k << 41) + 1, ((k + 1) << 41) - 1])
                .collect();
            probes.extend(cdf.iter().flat_map(|&c| {
                let m = (c * (1u64 << 53) as f64) as u64;
                [m.saturating_sub(1), m, m + 1]
            }));
            for m in probes.into_iter().filter(|&m| m < 1 << 53) {
                let u = m as f64 / (1u64 << 53) as f64;
                let want = cdf.partition_point(|&c| c < u).min(experts - 1);
                prop_assert_eq!(sampler.slot(m << 11), want, "m = {}", m);
            }
        }
    }

    #[test]
    fn balanced_rows_are_exact() {
        let a = AssignmentMatrix::generate(4, 8, 64, Imbalance::Balanced, 0);
        assert_eq!(a.workers(), 4);
        assert_eq!(a.experts(), 8);
        for w in 0..4 {
            assert_eq!(a.worker_tokens(w), 64);
            for e in 0..8 {
                assert_eq!(a.tokens(w, e), 8);
            }
        }
        assert!((a.imbalance_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn balanced_distributes_remainder() {
        let a = AssignmentMatrix::generate(1, 4, 10, Imbalance::Balanced, 0);
        assert_eq!(a.counts[0], vec![3, 3, 2, 2]);
        assert_eq!(a.worker_tokens(0), 10);
    }

    #[test]
    fn zipf_conserves_tokens() {
        let a = AssignmentMatrix::generate(3, 16, 500, Imbalance::Zipf(1.1), 42);
        for w in 0..3 {
            assert_eq!(a.worker_tokens(w), 500);
        }
    }

    #[test]
    fn zipf_is_more_imbalanced_than_uniform() {
        let hot = AssignmentMatrix::generate(4, 16, 2000, Imbalance::Zipf(1.2), 7);
        let flat = AssignmentMatrix::generate(4, 16, 2000, Imbalance::Zipf(0.0), 7);
        assert!(
            hot.imbalance_factor() > flat.imbalance_factor(),
            "zipf {} <= uniform {}",
            hot.imbalance_factor(),
            flat.imbalance_factor()
        );
        assert!(hot.imbalance_factor() > 1.5);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = AssignmentMatrix::generate(2, 8, 100, Imbalance::Zipf(1.0), 3);
        let b = AssignmentMatrix::generate(2, 8, 100, Imbalance::Zipf(1.0), 3);
        let c = AssignmentMatrix::generate(2, 8, 100, Imbalance::Zipf(1.0), 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn expert_load_sums_workers() {
        let a = AssignmentMatrix::generate(4, 4, 100, Imbalance::Balanced, 0);
        for e in 0..4 {
            assert_eq!(a.expert_load(e), 100);
        }
    }
}
