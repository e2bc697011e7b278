//! Synthetic token→expert assignment matrices.
//!
//! The simulation engines need only the *histogram* of tokens each worker
//! sends to each expert. Real gates produce imbalanced histograms (paper
//! §3.1 cites [24]); this module generates balanced and skewed variants
//! with a seeded RNG so experiments are reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// Buckets of the unit interval searched by [`SlotSampler`]; a power of
/// two, so `k / BUCKETS` and `u * BUCKETS` are exact in `f64`.
const BUCKETS: usize = 1 << 12;

/// Inverse-CDF lookup that returns exactly
/// `cdf.partition_point(|&c| c < u).min(len - 1)` for a nondecreasing
/// `cdf`, with a table lookup and a short forward scan instead of a
/// binary search.
///
/// `start[k]` is the answer for `u = k / BUCKETS`, the least `u` of
/// bucket `k`. The predicate `c < u` only gains entries as `u` grows, so
/// `start[⌊u · BUCKETS⌋]` is a lower bound of the answer for every `u` in
/// the bucket, and scanning forward from it while `cdf[i] < u` lands on
/// the same index the binary search finds.
struct SlotSampler {
    /// `cdf` followed by `+inf`, which ends every forward scan.
    bounds: Vec<f64>,
    start: Vec<u32>,
}

impl SlotSampler {
    fn new(cdf: Vec<f64>) -> Self {
        let mut bounds = cdf;
        bounds.push(f64::INFINITY);
        let mut i = 0;
        let start = (0..BUCKETS)
            .map(|k| {
                let lo = k as f64 / BUCKETS as f64;
                while bounds[i] < lo {
                    i += 1;
                }
                i as u32
            })
            .collect();
        SlotSampler { bounds, start }
    }

    /// Popularity slot of the uniform draw `u` in `[0, 1)`.
    fn slot(&self, u: f64) -> usize {
        // Through `u32`: a cheaper float-to-integer cast than `usize`.
        let k = ((u * BUCKETS as f64) as u32).min(BUCKETS as u32 - 1) as usize;
        let mut i = self.start[k] as usize;
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
                let mut slots = vec![0usize; experts];
                (0..workers)
                    .map(|_| {
                        slots.fill(0);
                        for _ in 0..tokens_per_worker {
                            let u: f64 = rng.random();
                            slots[sampler.slot(u)] += 1;
                        }
                        let mut row = vec![0usize; experts];
                        for (slot, &n) in slots.iter().enumerate() {
                            row[perm[slot]] = n;
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

        /// Draws at both ends of a bucket and on either side of every CDF
        /// entry land in the slot the binary search picks.
        #[test]
        fn slot_sampler_matches_partition_point_at_bucket_edges(
            experts in 1usize..300,
            s in 0.0f64..8.0,
            k in 0usize..BUCKETS,
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
            let lo = k as f64 / BUCKETS as f64;
            let hi = (k + 1) as f64 / BUCKETS as f64;
            let mut probes = vec![lo, lo.next_up(), hi.next_down(), 1.0f64.next_down()];
            probes.extend(cdf.iter().flat_map(|&c| [c.next_down(), c, c.next_up()]));
            for u in probes.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                let want = cdf.partition_point(|&c| c < u).min(experts - 1);
                prop_assert_eq!(sampler.slot(u), want, "u = {}", u);
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
