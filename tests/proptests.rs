//! Cross-crate property tests on scheduler and engine invariants.

use janus::core::ckpt::{Checkpoint, CkptError};
use janus::core::exec::model::{ExecConfig, WorkerState};
use janus::core::exec::trainer::{diff_runs, Trainer};
use janus::core::plan::{expert_owner, fetch_plan, IterationPlan, PlanOpts};
use janus::core::priority::{internal_priority, internal_pull_order, pcie_split};
use janus::core::sim::engine::{build_graph, EngineOpts, ParadigmPolicy};
use janus::core::sim::setup::SimSetup;
use janus::moe::config::ModelPreset;
use janus::moe::workload::{AssignmentMatrix, Imbalance};
use janus::netsim::simulate;
use janus::topology::{ClusterSpec, LocalRank, WorkerId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every fetch plan covers every expert exactly once per worker, for
    /// arbitrary cluster shapes and expert multiples.
    #[test]
    fn fetch_plans_are_complete_partitions(
        n in 1usize..4,
        m in 1usize..6,
        e_per in 1usize..4,
        topo in any::<bool>(),
    ) {
        let cluster = ClusterSpec::a100(n, m).build();
        let experts = n * m * e_per;
        let plan = fetch_plan(&cluster, experts, topo);
        for w in cluster.workers() {
            let all = plan.all_experts_for(w);
            prop_assert_eq!(all, (0..experts).collect::<Vec<_>>());
        }
        // Machine external lists: every off-machine expert exactly once.
        for machine in cluster.machines() {
            let list = &plan.machine_external[machine.0];
            for pull in list {
                prop_assert_ne!(cluster.machine_of(pull.owner), machine);
                prop_assert_eq!(expert_owner(pull.expert, experts, n * m), pull.owner);
            }
            prop_assert_eq!(list.len(), experts - m * e_per);
        }
    }

    /// Algorithm 1 priorities are a bijection per worker and stagger
    /// owners across workers at every step.
    #[test]
    fn staggered_priorities_form_latin_square(m in 2usize..12) {
        for r in 0..m {
            let order = internal_pull_order(LocalRank(r), m);
            let mut prios: Vec<usize> = order
                .iter()
                .map(|&o| internal_priority(o, LocalRank(r), m))
                .collect();
            prios.sort_unstable();
            prop_assert_eq!(prios, (1..m).collect::<Vec<_>>());
        }
        for step in 0..m - 1 {
            let mut owners: Vec<usize> =
                (0..m).map(|r| internal_pull_order(LocalRank(r), m)[step].0).collect();
            owners.sort_unstable();
            owners.dedup();
            prop_assert_eq!(owners.len(), m, "owner collision at step {}", step);
        }
    }

    /// The PCIe split is a partition and the two siblings' halves mirror
    /// each other for any expert list.
    #[test]
    fn pcie_split_partitions(experts in prop::collection::vec(0usize..1000, 0..40)) {
        let (a_mine, a_peer) = pcie_split(&experts, 0, true);
        let (b_mine, b_peer) = pcie_split(&experts, 1, true);
        prop_assert_eq!(&a_mine, &b_peer);
        prop_assert_eq!(&a_peer, &b_mine);
        let mut merged = a_mine.clone();
        merged.extend(&a_peer);
        merged.sort_unstable();
        let mut want = experts.clone();
        want.sort_unstable();
        prop_assert_eq!(merged, want);
    }

    /// Assignment matrices conserve tokens for any skew.
    #[test]
    fn assignments_conserve_tokens(
        workers in 1usize..8,
        experts in 1usize..16,
        tokens in 1usize..500,
        skew in 0.0f64..1.5,
        seed in any::<u64>(),
    ) {
        let a = AssignmentMatrix::generate(workers, experts, tokens, Imbalance::Zipf(skew), seed);
        for w in 0..workers {
            prop_assert_eq!(a.worker_tokens(w), tokens);
        }
        let total: usize = (0..experts).map(|e| a.expert_load(e)).sum();
        prop_assert_eq!(total, workers * tokens);
        prop_assert!(a.imbalance_factor() >= 1.0 - 1e-9);
    }

    /// Every engine-built graph simulates to completion (no deadlocks)
    /// across policies, ablation switches, credit sizes, and seeds.
    #[test]
    fn engine_graphs_never_deadlock(
        policy_ix in 0usize..3,
        topo in any::<bool>(),
        prefetch in any::<bool>(),
        credits in 1u32..4,
        seed in any::<u64>(),
    ) {
        let mut model = ModelPreset::MoeGpt.config(4);
        model.batch = 4;
        model.blocks.truncate(12);
        let cluster = ClusterSpec::a100(2, 2).build();
        let policy = [
            ParadigmPolicy::ExpertCentric,
            ParadigmPolicy::DataCentric,
            ParadigmPolicy::Unified,
        ][policy_ix];
        let mut opts = EngineOpts { policy, ..EngineOpts::default() };
        opts.dc.topo_aware = topo;
        opts.dc.prefetch = prefetch;
        opts.dc.credits = credits;
        opts.seed = seed;
        let setup = SimSetup::new(cluster, model, opts.imbalance, seed);
        let (graph, _) = build_graph(&setup, &opts);
        let result = simulate(&graph, &setup.cluster.capacities());
        prop_assert!(result.is_ok(), "{:?}", result.err());
        prop_assert!(result.unwrap().makespan > 0.0);
    }

    /// Plan compilation is a pure function of `(model, cluster, opts)`:
    /// the digest is identical across repeated runs and across threads.
    #[test]
    fn plan_digests_are_stable_across_runs_and_threads(
        n in 1usize..4,
        m in 1usize..5,
        e_per in 1usize..4,
        policy_ix in 0usize..3,
        topo in any::<bool>(),
        prefetch in any::<bool>(),
        credits in 1u32..8,
        thr_mil in 1u64..4000,
    ) {
        let cluster = ClusterSpec::a100(n, m).build();
        let model = ModelPreset::MoeGpt.config(n * m * e_per);
        let opts = PlanOpts {
            policy: [
                ParadigmPolicy::ExpertCentric,
                ParadigmPolicy::DataCentric,
                ParadigmPolicy::Unified,
            ][policy_ix],
            r_threshold: thr_mil as f64 / 1000.0,
            topo_aware: topo,
            prefetch,
            credits,
        };
        let digest = IterationPlan::compile(&model, &cluster, &opts).digest();
        let rerun = IterationPlan::compile(&model, &cluster, &opts).digest();
        prop_assert_eq!(rerun, digest);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (c, mo) = (cluster.clone(), model.clone());
                std::thread::spawn(move || IterationPlan::compile(&mo, &c, &opts).digest())
            })
            .collect();
        for h in handles {
            prop_assert_eq!(h.join().expect("compile thread"), digest);
        }
    }

    /// In every compiled plan, each data-centric block's own + internal +
    /// external pulls cover the block's expert set exactly once per
    /// worker — and only data-centric MoE blocks carry a fetch plan.
    #[test]
    fn compiled_fetch_plans_partition_every_block(
        n in 1usize..4,
        m in 1usize..5,
        e_per in 1usize..4,
        topo in any::<bool>(),
        thr_mil in 1u64..4000,
    ) {
        let cluster = ClusterSpec::a100(n, m).build();
        let model = ModelPreset::MoeGpt.config(n * m * e_per);
        let opts = PlanOpts {
            policy: ParadigmPolicy::Unified,
            r_threshold: thr_mil as f64 / 1000.0,
            topo_aware: topo,
            ..PlanOpts::default()
        };
        let plan = IterationPlan::compile(&model, &cluster, &opts);
        prop_assert_eq!(plan.blocks.len(), model.blocks.len());
        for bp in &plan.blocks {
            use janus::core::Paradigm;
            let dc_moe = bp.experts > 0 && bp.paradigm == Paradigm::DataCentric;
            prop_assert_eq!(bp.fetch.is_some(), dc_moe);
            if let Some(fetch) = &bp.fetch {
                for w in cluster.workers() {
                    prop_assert_eq!(
                        fetch.all_experts_for(w),
                        (0..bp.experts).collect::<Vec<_>>()
                    );
                }
            }
        }
    }

    /// Checkpoints round-trip bitwise: serialize → parse → serialize is
    /// the identity on bytes, and restore → capture is the identity on
    /// state, for arbitrary cluster shapes, seeds, and iteration counts.
    #[test]
    fn checkpoint_roundtrip_is_bitwise(
        machines in 1usize..3,
        gpus in 1usize..3,
        e_per in 1usize..3,
        seed in any::<u64>(),
        iter in 0u64..1_000_000,
        digest in any::<u64>(),
    ) {
        let world = machines * gpus;
        let cfg = ExecConfig {
            machines,
            gpus_per_machine: gpus,
            hidden_dim: 4,
            blocks: 2,
            experts: world * e_per,
            experts_per_block: vec![],
            top_k: 1,
            tokens: 4,
            seed,
            lr: 0.01,
        };
        for rank in 0..world {
            let state = WorkerState::init(&cfg, rank);
            let ckpt = Checkpoint::capture(&state, iter, digest);
            let bytes = ckpt.to_bytes();
            let back = Checkpoint::from_bytes(bytes.as_ref()).expect("parse own bytes");
            prop_assert_eq!(
                bytes.as_ref(),
                back.to_bytes().as_ref(),
                "serialize-parse-serialize changed bytes for rank {}",
                rank
            );
            let mut target = WorkerState::init(&cfg, rank);
            back.restore(&mut target).expect("restore onto same shape");
            let again = Checkpoint::capture(&target, iter, digest);
            prop_assert_eq!(
                bytes.as_ref(),
                again.to_bytes().as_ref(),
                "restore-capture changed bytes for rank {}",
                rank
            );
        }
    }

    /// Flipping any single bit anywhere in a checkpoint blob — header,
    /// payload, or trailer — is caught by the whole-blob checksum before
    /// a single field is interpreted.
    #[test]
    fn corrupted_checkpoints_are_rejected(
        seed in any::<u64>(),
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let cfg = ExecConfig { seed, ..ExecConfig::small() };
        let state = WorkerState::init(&cfg, 0);
        let bytes = Checkpoint::capture(&state, 3, 0xD16E57).to_bytes();
        let mut corrupt = bytes.as_ref().to_vec();
        let pos = (pos_seed % corrupt.len() as u64) as usize;
        corrupt[pos] ^= 1 << bit;
        let err = Checkpoint::from_bytes(&corrupt)
            .expect_err("a flipped bit must never load");
        prop_assert!(
            matches!(err, CkptError::Checksum { .. }),
            "flip at byte {} bit {}: want checksum rejection, got {}",
            pos, bit, err
        );
        prop_assert!(err.to_string().contains("checksum"), "{}", err);
    }

    /// Cluster routing is always loop-free, uses each link at most once,
    /// and cross-node routes cross exactly two NICs.
    #[test]
    fn routes_are_simple_paths(n in 1usize..4, m in 1usize..6) {
        let cluster = ClusterSpec::a100(n, m).build();
        use janus::topology::Location;
        let locs: Vec<Location> = cluster
            .workers()
            .map(Location::Gpu)
            .chain(cluster.machines().map(Location::CpuMem))
            .collect();
        for &from in &locs {
            for &to in &locs {
                let route = cluster.route(from, to);
                let mut ids: Vec<_> = route.clone();
                ids.sort_unstable();
                ids.dedup();
                prop_assert_eq!(ids.len(), route.len(), "duplicate link in route");
                let nic_crossings = route
                    .iter()
                    .filter(|&&l| cluster.link_info(l).kind.is_cross_node())
                    .count();
                let cross = machine_of_loc(&cluster, from) != machine_of_loc(&cluster, to);
                prop_assert_eq!(nic_crossings, if cross { 2 } else { 0 });
            }
        }
    }

    /// Critical-path blame over an arbitrary well-formed trace tiles the
    /// iteration window: per-category blame sums to the wall time, the
    /// wall is at least the longest single (clipped) span, and non-idle
    /// blame never exceeds the total span time on the path's ranks.
    #[test]
    fn critical_path_blame_is_additive_and_bounded(
        wall in 40.0f64..400.0,
        spans in prop::collection::vec(
            (0u32..4, 0usize..6, 0.0f64..1.0, 0.01f64..1.0),
            1..40,
        ),
    ) {
        use janus::obs::analysis::critical_path;
        use janus::obs::TraceEvent;
        const NAMES: [(&str, &str); 6] = [
            ("fwd/b0/e0", "compute"),
            ("pull/b0/e1", "comm"),
            ("a2a_dispatch/b0", "comm"),
            ("barrier/0", "sync"),
            ("grad_wait", "reduce"),
            ("prefetch/b0/e2", "comm"),
        ];
        let mut events = Vec::new();
        let mut ranks = std::collections::BTreeSet::new();
        for &(pid, name_idx, ts_q, dur_q) in &spans {
            ranks.insert(pid);
            let (name, cat) = NAMES[name_idx];
            let ts = ts_q * wall;
            events.push(TraceEvent {
                name: name.to_string(),
                cat: cat.to_string(),
                pid,
                tid: "t".to_string(),
                ts_us: ts,
                // Spans may extend past the window; the walk clips them.
                dur_us: dur_q * wall,
            });
        }
        for &pid in &ranks {
            events.push(TraceEvent {
                name: "iter/0".to_string(),
                cat: "iter".to_string(),
                pid,
                tid: "t".to_string(),
                ts_us: 0.0,
                dur_us: wall,
            });
        }
        let report = critical_path(&events);
        prop_assert_eq!(report.iterations.len(), 1);
        let it = &report.iterations[0];
        let eps = 1e-6 * wall;
        prop_assert!((it.wall_us - wall).abs() < eps);
        // Additivity: blame tiles the window exactly.
        let blamed: f64 = it.by_category.iter().map(|b| b.us).sum();
        prop_assert!((blamed - it.wall_us).abs() < eps, "blame {blamed} != wall {}", it.wall_us);
        let by_rank: f64 = it.by_rank.iter().map(|b| b.us).sum();
        prop_assert!((by_rank - it.wall_us).abs() < eps);
        // Lower bound: the window covers its longest clipped span.
        let longest = events
            .iter()
            .filter(|e| e.cat != "iter")
            .map(|e| e.end_us().min(wall) - e.ts_us.max(0.0))
            .fold(0.0, f64::max);
        prop_assert!(it.wall_us >= longest - eps);
        // Upper bound: non-idle blame is covered by recorded spans.
        let idle = it.by_category.iter().find(|b| b.category == "idle").unwrap().us;
        let total_span: f64 = events
            .iter()
            .filter(|e| e.cat != "iter")
            .map(|e| (e.end_us().min(wall) - e.ts_us.max(0.0)).max(0.0))
            .sum();
        prop_assert!(blamed - idle <= total_span + eps);
    }
}

proptest! {
    // Each case trains three 4-worker clusters; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The generated-seed form of the trainer's equivalence table: a
    /// compiled mixed-paradigm plan is bitwise identical to both
    /// forced-paradigm plans, for any seed.
    #[test]
    fn unified_is_bitwise_equal_to_forced_paradigms(seed in any::<u64>()) {
        let cfg = ExecConfig { seed, ..ExecConfig::mixed_paradigms() };
        let train = |policy| {
            Trainer::new(&cfg, &PlanOpts { policy, ..PlanOpts::default() }).run(2)
        };
        let unified = train(ParadigmPolicy::Unified);
        for forced in [ParadigmPolicy::ExpertCentric, ParadigmPolicy::DataCentric] {
            let d = diff_runs(&unified, &train(forced));
            prop_assert_eq!(d.max_output_diff, 0.0);
            prop_assert_eq!(d.max_weight_diff, 0.0);
            prop_assert_eq!(d.max_loss_diff, 0.0);
        }
    }
}

fn machine_of_loc(cluster: &janus::topology::Cluster, loc: janus::topology::Location) -> usize {
    match loc {
        janus::topology::Location::Gpu(w) => cluster.machine_of(w).0,
        janus::topology::Location::CpuMem(mm) => mm.0,
    }
}

/// Static sanity outside proptest: expert ownership is contiguous.
#[test]
fn ownership_is_contiguous() {
    for (experts, workers) in [(8usize, 4usize), (32, 32), (64, 16)] {
        let mut last = WorkerId(0);
        for e in 0..experts {
            let owner = expert_owner(e, experts, workers);
            assert!(owner >= last, "ownership must be monotone");
            last = owner;
        }
        assert_eq!(last, WorkerId(workers - 1));
    }
}
