//! Elastic expert placement: the versioned expert→rank table.
//!
//! The static layout ([`Placement::balanced`]: `owner(b, e) = e /
//! experts_per_worker(b)`) is just epoch 0 of a [`Placement`]: a
//! per-block `expert → rank` table plus a liveness mask, bumped to a
//! new epoch whenever experts move — either because a rank died
//! permanently and its experts were drained onto survivors
//! ([`Placement::drain`]), or because hot experts were swapped off an
//! overloaded rank ([`Placement::rebalance`]). The table
//! is part of the iteration-plan IR (digest-stable: a plan without a
//! placement hashes exactly as before) and of v2 checkpoints, so a
//! committed cut self-describes the layout it was taken under and
//! replay can never observe a torn placement.
//!
//! Determinism: both planners are pure functions of their inputs, so
//! every rank (and the coordinator) computes the identical next table
//! from the identical death/skew evidence.

use crate::plan::Fnv64;
use serde::{Deserialize, Serialize};

/// One expert move in a migration plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Move {
    /// Block the expert lives in.
    pub block: usize,
    /// Global expert id within the block.
    pub expert: usize,
    /// Rank losing the expert.
    pub from: usize,
    /// Rank gaining the expert.
    pub to: usize,
}

/// Versioned expert→rank table plus rank liveness — the elastic view of
/// expert ownership shared by both paradigms' block bodies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// Epoch counter: bumped by every committed migration, so two tables
    /// with the same epoch are guaranteed identical for a given run.
    pub epoch: u64,
    /// `owners[block][expert]` = owning rank.
    pub owners: Vec<Vec<u32>>,
    /// `live[rank]`: false once a rank is declared permanently dead.
    pub live: Vec<bool>,
}

impl Placement {
    /// Epoch-0 balanced table matching the static contiguous layout
    /// (`owner = e / (experts / world)`), everyone live.
    pub fn balanced(experts_per_block: &[usize], world: usize) -> Self {
        assert!(world > 0, "placement needs at least one rank");
        let owners = experts_per_block
            .iter()
            .map(|&experts| {
                assert_eq!(experts % world, 0, "experts must divide the world size");
                let per = experts / world;
                (0..experts).map(|e| (e / per) as u32).collect()
            })
            .collect();
        Placement {
            epoch: 0,
            owners,
            live: vec![true; world],
        }
    }

    /// World size the table was built for.
    pub fn world(&self) -> usize {
        self.live.len()
    }

    /// Owning rank of expert `e` in block `b`.
    pub fn owner_of(&self, b: usize, e: usize) -> usize {
        self.owners[b][e] as usize
    }

    /// Whether `rank` is still live.
    pub fn is_live(&self, rank: usize) -> bool {
        self.live[rank]
    }

    /// Number of live ranks.
    pub fn live_count(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// Global expert ids of block `b` owned by `rank`, ascending. The
    /// position of an expert in this list is its local shard index.
    pub fn owned_in(&self, b: usize, rank: usize) -> Vec<usize> {
        self.owners[b]
            .iter()
            .enumerate()
            .filter(|&(_, &o)| o as usize == rank)
            .map(|(e, _)| e)
            .collect()
    }

    /// Local shard index of expert `e` in block `b` on its owner: the
    /// number of lower-id experts the owner holds in the block.
    pub fn local_index(&self, b: usize, e: usize) -> usize {
        let owner = self.owners[b][e];
        self.owners[b][..e].iter().filter(|&&o| o == owner).count()
    }

    /// Live local ranks of `machine`, ascending.
    pub fn live_locals(&self, machine: usize, gpus: usize) -> Vec<usize> {
        (machine * gpus..(machine + 1) * gpus)
            .filter(|&r| self.live[r])
            .collect()
    }

    /// The live local rank designated to fetch external expert `e` for
    /// `machine` (and to aggregate its gradient pre-reduction):
    /// round-robin over the machine's *live* workers. With everyone live
    /// this equals the static `machine·gpus + e mod gpus`.
    pub fn designated_local(&self, machine: usize, e: usize, gpus: usize) -> usize {
        let locals = self.live_locals(machine, gpus);
        assert!(
            !locals.is_empty(),
            "machine {machine} has no live workers left"
        );
        locals[e % locals.len()]
    }

    /// Whether this is the default table: epoch 0, balanced, all live.
    /// Checkpoints omit the placement section for the default table, so
    /// pre-elastic checkpoint bytes are reproduced exactly.
    pub fn is_default(&self) -> bool {
        self.epoch == 0 && self.live.iter().all(|&l| l)
    }

    /// Fold the table into a running FNV-1a digest (the plan digest).
    pub fn fold(&self, h: &mut Fnv64) {
        h.word(self.epoch);
        h.word(self.owners.len() as u64);
        for block in &self.owners {
            h.word(block.len() as u64);
            for &o in block {
                h.word(o as u64);
            }
        }
        for &l in &self.live {
            h.byte(l as u8);
        }
    }

    /// Standalone digest of the table.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        self.fold(&mut h);
        h.finish()
    }

    /// Structural validity: table dimensions consistent, every expert
    /// owned by a live in-range rank.
    pub fn assert_valid(&self) {
        let world = self.world();
        assert!(self.live_count() > 0, "no live ranks");
        for (b, block) in self.owners.iter().enumerate() {
            for (e, &o) in block.iter().enumerate() {
                assert!(
                    (o as usize) < world && self.live[o as usize],
                    "block {b} expert {e} owned by dead or out-of-range rank {o}"
                );
            }
        }
    }

    /// Declare `dead` permanently lost and re-apportion its experts
    /// across the survivors: orphans ascending by `(block, expert)`,
    /// each to the live rank currently holding the fewest experts of
    /// that block (ties to the lowest rank). Bumps the epoch.
    pub fn drain(&self, dead: usize) -> Placement {
        assert!(self.live[dead], "rank {dead} is already dead");
        let mut next = self.clone();
        next.live[dead] = false;
        assert!(next.live_count() > 0, "cannot drain the last live rank");
        next.epoch = self.epoch + 1;
        for b in 0..next.owners.len() {
            let mut counts: Vec<usize> = (0..next.world())
                .map(|r| next.owners[b].iter().filter(|&&o| o as usize == r).count())
                .collect();
            for e in 0..next.owners[b].len() {
                if next.owners[b][e] as usize != dead {
                    continue;
                }
                let heir = (0..next.world())
                    .filter(|&r| next.live[r])
                    .min_by_key(|&r| (counts[r], r))
                    .expect("at least one live rank");
                next.owners[b][e] = heir as u32;
                counts[dead] -= 1;
                counts[heir] += 1;
            }
        }
        next.assert_valid();
        next
    }

    /// Greedy skew rebalance: up to `max_moves` times, move one expert
    /// from the most-loaded live rank to the least-loaded live rank,
    /// picking the expert whose load best halves the max−min gap (a
    /// scorching expert is therefore *isolated* — its lighter shard
    /// mates move away — rather than bounced between ranks), and
    /// stopping as soon as no move would shrink the gap. `loads[b][e]`
    /// is the (deterministic) per-expert load. Returns the new table
    /// (epoch bumped once if anything moved) and the moves.
    pub fn rebalance(&self, loads: &[Vec<f64>], max_moves: usize) -> (Placement, Vec<Move>) {
        assert_eq!(loads.len(), self.owners.len(), "one load row per block");
        let mut next = self.clone();
        let mut moves = Vec::new();
        for _ in 0..max_moves {
            let rank_load = |p: &Placement, r: usize| -> f64 {
                p.owners
                    .iter()
                    .zip(loads)
                    .flat_map(|(block, row)| {
                        block
                            .iter()
                            .zip(row)
                            .filter(move |(&o, _)| o as usize == r)
                            .map(|(_, &l)| l)
                    })
                    .sum()
            };
            let live: Vec<usize> = (0..next.world()).filter(|&r| next.live[r]).collect();
            let hot = *live
                .iter()
                .max_by(|&&a, &&b| {
                    rank_load(&next, a)
                        .partial_cmp(&rank_load(&next, b))
                        .unwrap()
                        .then(b.cmp(&a)) // ties to the lowest rank
                })
                .expect("live ranks");
            let cold = *live
                .iter()
                .min_by(|&&a, &&b| {
                    rank_load(&next, a)
                        .partial_cmp(&rank_load(&next, b))
                        .unwrap()
                        .then(a.cmp(&b))
                })
                .expect("live ranks");
            if hot == cold {
                break;
            }
            let gap = rank_load(&next, hot) - rank_load(&next, cold);
            // The expert on the hot rank whose transfer best halves the
            // gap — the post-move gap is |gap − 2·load|, so the ideal
            // shard carries half the gap. A rank never gives up its last
            // expert in a block (every rank must keep a shard to stay a
            // gradient owner of something it serves).
            let candidate = next
                .owners
                .iter()
                .enumerate()
                .flat_map(|(b, block)| {
                    let owned = block.iter().filter(|&&o| o as usize == hot).count();
                    block
                        .iter()
                        .enumerate()
                        .filter(move |(_, &o)| o as usize == hot && owned > 1)
                        .map(move |(e, _)| (b, e))
                })
                .min_by(|&(b1, e1), &(b2, e2)| {
                    (gap - 2.0 * loads[b1][e1])
                        .abs()
                        .partial_cmp(&(gap - 2.0 * loads[b2][e2]).abs())
                        .unwrap()
                        .then((b1, e1).cmp(&(b2, e2))) // ties to lowest (b, e)
                });
            let Some((b, e)) = candidate else { break };
            if (gap - 2.0 * loads[b][e]).abs() >= gap {
                break;
            }
            next.owners[b][e] = cold as u32;
            moves.push(Move {
                block: b,
                expert: e,
                from: hot,
                to: cold,
            });
        }
        if !moves.is_empty() {
            next.epoch = self.epoch + 1;
        }
        next.assert_valid();
        (next, moves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_matches_static_layout() {
        let p = Placement::balanced(&[8, 4], 4);
        assert_eq!(p.epoch, 0);
        assert!(p.is_default());
        for e in 0..8 {
            assert_eq!(p.owner_of(0, e), e / 2, "block 0 expert {e}");
        }
        for e in 0..4 {
            assert_eq!(p.owner_of(1, e), e, "block 1 expert {e}");
        }
        assert_eq!(p.owned_in(0, 2), vec![4, 5]);
        assert_eq!(p.local_index(0, 5), 1);
        assert_eq!(p.designated_local(1, 5, 2), 3);
        p.assert_valid();
    }

    #[test]
    fn drain_reassigns_every_orphan_to_live_ranks() {
        let p = Placement::balanced(&[8], 4);
        let d = p.drain(1);
        assert_eq!(d.epoch, 1);
        assert!(!d.is_live(1));
        assert!(!d.is_default());
        d.assert_valid();
        // Orphans 2 and 3 land on the two least-loaded survivors.
        assert!(d.owned_in(0, 1).is_empty());
        let total: usize = (0..4).map(|r| d.owned_in(0, r).len()).sum();
        assert_eq!(total, 8);
        // Deterministic: same drain twice gives the same table.
        assert_eq!(p.drain(1), d);
    }

    #[test]
    fn drain_keeps_designated_locals_live() {
        let p = Placement::balanced(&[8], 4).drain(2);
        // Machine 1 (ranks 2,3) has only rank 3 live: every designation
        // for machine 1 must be rank 3.
        for e in 0..8 {
            assert_eq!(p.designated_local(1, e, 2), 3);
        }
    }

    #[test]
    fn rebalance_relieves_the_hot_rank() {
        let p = Placement::balanced(&[8], 4);
        // Rank 0 owns experts 0 and 1; make expert 0 scorching. The
        // best greedy move isolates it: its lighter shard mate (expert
        // 1) leaves for the coldest rank, rather than the scorching
        // expert bouncing onto — and overloading — another rank.
        let mut loads = vec![vec![1.0; 8]];
        loads[0][0] = 10.0;
        let (next, moves) = p.rebalance(&loads, 4);
        assert!(!moves.is_empty());
        assert_eq!(moves[0].expert, 1);
        assert_eq!(moves[0].from, 0);
        assert_eq!(next.owner_of(0, 0), 0, "scorching expert stays put");
        assert_ne!(next.owner_of(0, 1), 0);
        assert_eq!(next.epoch, 1);
        next.assert_valid();
        let load_of = |pl: &Placement, r: usize| -> f64 {
            pl.owned_in(0, r).iter().map(|&e| loads[0][e]).sum()
        };
        let max_before = (0..4).map(|r| load_of(&p, r)).fold(0.0, f64::max);
        let max_after = (0..4).map(|r| load_of(&next, r)).fold(0.0, f64::max);
        assert!(max_after < max_before, "{max_after} < {max_before}");
        // Deterministic.
        assert_eq!(p.rebalance(&loads, 4), (next, moves));
    }

    #[test]
    fn rebalance_is_a_no_op_when_balanced() {
        let p = Placement::balanced(&[8], 4);
        let loads = vec![vec![1.0; 8]];
        let (next, moves) = p.rebalance(&loads, 4);
        assert!(moves.is_empty());
        assert_eq!(next, p);
    }

    #[test]
    fn digest_tracks_content() {
        let p = Placement::balanced(&[8], 4);
        let d = p.drain(3);
        assert_ne!(p.digest(), d.digest());
        assert_eq!(p.digest(), Placement::balanced(&[8], 4).digest());
    }
}
