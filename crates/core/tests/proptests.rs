//! Property-based tests for framework invariants.

use goofi_core::{
    classify, generate_fault_list, logged_experiment_name, reference_experiment_name, rowcodec,
    wilson, Campaign, ChainInfo, Decision, ExperimentData, ExperimentRecord, ExperimentRun,
    FaultModel, FieldInfo, LivenessAnalysis, Location, LocationSelector, Outcome, PlannedFault,
    StateVector, TargetEvent, TargetSystemConfig, TraceStep, TriggerPolicy,
};
use proptest::prelude::*;

fn config() -> TargetSystemConfig {
    TargetSystemConfig {
        name: "prop".into(),
        description: String::new(),
        chains: vec![ChainInfo {
            name: "cpu".into(),
            width: 80,
            fields: vec![
                FieldInfo {
                    name: "R0".into(),
                    offset: 0,
                    width: 32,
                    writable: true,
                },
                FieldInfo {
                    name: "R1".into(),
                    offset: 32,
                    width: 32,
                    writable: true,
                },
                FieldInfo {
                    name: "RO".into(),
                    offset: 64,
                    width: 16,
                    writable: false,
                },
            ],
        }],
        memory: Vec::new(),
    }
}

fn arb_event() -> impl Strategy<Value = TargetEvent> {
    prop_oneof![
        Just(TargetEvent::Halted),
        Just(TargetEvent::TimedOut),
        Just(TargetEvent::IterationsDone),
        "[a-z-]{3,12}".prop_map(|mechanism| TargetEvent::Detected {
            mechanism,
            detail: String::new(),
        }),
    ]
}

fn run_with(
    termination: TargetEvent,
    outputs: Vec<u32>,
    state_flips: Vec<u16>,
    iterations: u32,
) -> ExperimentRun {
    let mut state = StateVector::zeros(64);
    for b in state_flips {
        state.flip((b % 64) as usize);
    }
    ExperimentRun {
        fault: None,
        termination,
        outputs,
        state,
        instructions: 10,
        iterations,
        activations_done: 1,
        detail_trace: None,
        pruned: false,
        predicted: false,
    }
}

/// Every termination the row codec must carry.
fn arb_any_event() -> impl Strategy<Value = TargetEvent> {
    prop_oneof![
        Just(TargetEvent::Halted),
        Just(TargetEvent::TimedOut),
        Just(TargetEvent::IterationsDone),
        any::<u64>().prop_map(|time| TargetEvent::BreakpointHit { time }),
        ("[a-z-]{0,12}", "[ -~]{0,24}")
            .prop_map(|(mechanism, detail)| TargetEvent::Detected { mechanism, detail }),
    ]
}

fn arb_location() -> impl Strategy<Value = Location> {
    prop_oneof![
        ("[a-z]{1,6}", any::<usize>()).prop_map(|(chain, bit)| Location::ChainBit { chain, bit }),
        (any::<u32>(), any::<u8>()).prop_map(|(addr, bit)| Location::MemoryBit { addr, bit }),
    ]
}

fn arb_fault() -> impl Strategy<Value = PlannedFault> {
    let model = prop_oneof![
        Just(FaultModel::BitFlip),
        any::<usize>().prop_map(|bits| FaultModel::MultiBitFlip { bits }),
        (any::<bool>(), any::<u64>()).prop_map(|(value, reassert_period)| FaultModel::StuckAt {
            value,
            reassert_period
        }),
        any::<usize>().prop_map(|activations| FaultModel::Intermittent { activations }),
    ];
    (
        model,
        proptest::collection::vec(arb_location(), 1..4),
        proptest::collection::vec(any::<u64>(), 1..6),
    )
        .prop_map(|(model, targets, times)| PlannedFault {
            model,
            targets,
            times,
        })
}

fn arb_data() -> impl Strategy<Value = ExperimentData> {
    let trace = proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..12), 0..4);
    (
        (any::<bool>(), arb_fault()),
        arb_any_event(),
        proptest::collection::vec(any::<u32>(), 0..20),
        (any::<u32>(), any::<u64>()),
        (any::<bool>(), trace),
    )
        .prop_map(
            |(
                (faulted, fault),
                termination,
                outputs,
                (iterations, instructions),
                (traced, trace),
            )| {
                ExperimentData {
                    fault: faulted.then_some(fault),
                    termination,
                    outputs,
                    iterations,
                    instructions,
                    detail_trace: traced.then_some(trace),
                }
            },
        )
}

fn arb_record() -> impl Strategy<Value = ExperimentRecord> {
    (
        ("[a-z]{1,8}", "[0-9]{1,5}", any::<bool>()),
        arb_data(),
        proptest::collection::vec(any::<u8>(), 0..96),
    )
        .prop_map(
            |((campaign, index, has_parent), data, state_vector)| ExperimentRecord {
                name: format!("{campaign}/{index}"),
                parent: has_parent.then(|| format!("{campaign}/0")),
                campaign,
                data,
                state_vector,
            },
        )
}

/// `record` moved close to `base`, as most experiments are to their
/// reference: outputs, termination and instruction count copied when
/// `same` says so, and the base's vector with a few bytes flipped,
/// shortened, kept or lengthened by `len_shape`.
fn near(
    mut record: ExperimentRecord,
    base: &ExperimentRecord,
    same: u8,
    len_shape: u8,
    seed: u64,
) -> ExperimentRecord {
    if same & 1 != 0 {
        record.data.termination = base.data.termination.clone();
    }
    if same & 2 != 0 {
        record.data.outputs = base.data.outputs.clone();
    }
    if same & 4 != 0 {
        record.data.instructions = base.data.instructions;
    }
    let mut vector = base.state_vector.clone();
    let k = (seed % 7) as usize + 1;
    match len_shape {
        0 => vector.truncate(vector.len().saturating_sub(k)),
        1 => {}
        _ => vector.extend((0..k).map(|i| (seed >> i) as u8)),
    }
    for i in 0..(seed % 4) as usize {
        if !vector.is_empty() {
            let at = (seed.rotate_left(i as u32 * 13) as usize) % vector.len();
            vector[at] ^= 1 << (i % 8);
        }
    }
    record.state_vector = vector;
    record
}

proptest! {
    /// The compact row codec is lossless and a function of (record,
    /// base) alone, on the empty base, on an arbitrary base and on a base
    /// the record is close to, with vectors shorter than, as long as and
    /// longer than the base's.
    #[test]
    fn compact_rows_roundtrip_on_any_base(
        record in arb_record(),
        reference in arb_record(),
        other in arb_record(),
        shape in (0u8..3, 0u8..8, 0u8..3, any::<u64>()),
    ) {
        let (kind, same, len_shape, seed) = shape;
        let (record, base) = match kind {
            0 => (record, None),
            1 => (record, Some(reference)),
            _ => (near(record, &reference, same, len_shape, seed), Some(reference)),
        };
        let bytes = rowcodec::encode(&record, base.as_ref());
        prop_assert_eq!(rowcodec::decode(&bytes, base.as_ref()).unwrap(), record.clone());
        // No state carries over from one encoding to the next.
        let _ = rowcodec::encode(&other, base.as_ref());
        let _ = rowcodec::encode(&record, Some(&other));
        prop_assert_eq!(rowcodec::encode(&record.clone(), base.clone().as_ref()), bytes);
    }

    /// A pruned or predicted row encoded straight from its fault and the
    /// reference has the bytes of the logical row its decision stands
    /// for, encoded against the reference: for every fault model, chain
    /// and memory locations, one or more activation times, and any
    /// reference outcome, vector and detail trace.
    #[test]
    fn decided_rows_encode_as_their_logical_rows(
        fault in arb_fault(),
        termination in arb_any_event(),
        outputs in proptest::collection::vec(any::<u32>(), 0..20),
        vector in prop_oneof![
            Just(Vec::new()),
            proptest::collection::vec(any::<u8>(), 0..2048),
        ],
        counts in (any::<u32>(), any::<u64>(), any::<usize>()),
        trace in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..12), 0..4),
        row in ("[a-z0-9-]{1,8}", 0usize..200_000, any::<bool>(), any::<bool>()),
    ) {
        let (iterations, instructions, activations_done) = counts;
        let (campaign, index, traced, predicted) = row;
        let reference = ExperimentRun {
            fault: None,
            termination,
            outputs,
            state: StateVector::from_bytes(vector.clone(), vector.len() * 8),
            instructions,
            iterations,
            activations_done,
            detail_trace: traced.then(|| {
                trace.iter().map(|s| StateVector::from_bytes(s.clone(), s.len() * 8)).collect()
            }),
            pruned: false,
            predicted: false,
        };
        let decision = if predicted { Decision::Predicted } else { Decision::Pruned };
        let run = decision.synthesise(&reference, &fault).expect("a decided row");
        let base = ExperimentRecord::from_run(
            reference_experiment_name(&campaign),
            &campaign,
            &reference,
        );
        let name = logged_experiment_name(&campaign, index);
        let logical = ExperimentRecord::from_run(name.clone(), &campaign, &run);
        prop_assert_eq!(
            rowcodec::encode_decided(&name, &campaign, &fault, &base),
            rowcodec::encode(&logical, Some(&base))
        );
        prop_assert_eq!(Decision::Execute.synthesise(&reference, &fault), None);
    }

    /// The classifier is total: every (termination, outputs, state) lands
    /// in exactly one of the four §3.4 classes, and the partition between
    /// effective and non-effective is consistent.
    #[test]
    fn classifier_is_total_and_consistent(
        ev in arb_event(),
        outs in proptest::collection::vec(any::<u32>(), 0..4),
        flips in proptest::collection::vec(any::<u16>(), 0..8),
        iters in 0u32..5,
    ) {
        let reference = run_with(TargetEvent::Halted, vec![1, 2], vec![], 3);
        let run = run_with(ev.clone(), outs.clone(), flips.clone(), iters);
        let outcome = classify(&reference, &run);
        let is_eff = matches!(outcome, Outcome::Detected { .. } | Outcome::Escaped { .. });
        match &outcome {
            Outcome::Detected { .. } => {
                let was_detected = matches!(ev, TargetEvent::Detected { .. });
                prop_assert!(was_detected);
            }
            Outcome::Escaped { .. } => {
                let timed_out = matches!(ev, TargetEvent::TimedOut);
                prop_assert!(timed_out || iters < 3 || outs != vec![1, 2]);
            }
            Outcome::Latent => {
                prop_assert_eq!(&outs, &vec![1, 2]);
                prop_assert!(!flips.is_empty());
            }
            Outcome::Overwritten => {
                prop_assert_eq!(&outs, &vec![1, 2]);
            }
        }
        // Effectiveness matches the class family.
        prop_assert_eq!(outcome.is_effective(), is_eff);
    }

    /// Fault-list generation is deterministic in the seed and never emits
    /// read-only or out-of-range locations.
    #[test]
    fn fault_lists_are_deterministic_and_writable(seed in any::<u64>(), n in 1usize..60) {
        let cfg = config();
        let sel = vec![LocationSelector::Chain { chain: "cpu".into(), field: None }];
        let policy = TriggerPolicy::Window { start: 0, end: 500 };
        let a = generate_fault_list(&cfg, &sel, FaultModel::BitFlip, &policy, n, seed, None).unwrap();
        let b = generate_fault_list(&cfg, &sel, FaultModel::BitFlip, &policy, n, seed, None).unwrap();
        prop_assert_eq!(&a, &b);
        for fault in &a {
            prop_assert_eq!(fault.times.len(), 1);
            prop_assert!(fault.times[0] <= 500);
            match &fault.targets[0] {
                Location::ChainBit { bit, .. } => prop_assert!(*bit < 64, "read-only bit {bit}"),
                other => prop_assert!(false, "unexpected location {other:?}"),
            }
        }
    }

    /// Double application of a transient flip restores a state vector;
    /// stuck-at application is idempotent.
    #[test]
    fn fault_application_algebra(bit in 0usize..64, init in proptest::collection::vec(any::<u8>(), 8)) {
        let original = StateVector::from_bytes(init, 64);
        let flip = PlannedFault {
            model: FaultModel::BitFlip,
            targets: vec![Location::ChainBit { chain: "cpu".into(), bit }],
            times: vec![0],
        };
        let mut v = original.clone();
        flip.apply_to_chain("cpu", &mut v);
        prop_assert_eq!(original.hamming_distance(&v), 1);
        flip.apply_to_chain("cpu", &mut v);
        prop_assert_eq!(&v, &original);

        let stuck = PlannedFault {
            model: FaultModel::StuckAt { value: true, reassert_period: 1 },
            targets: vec![Location::ChainBit { chain: "cpu".into(), bit }],
            times: vec![0],
        };
        let mut w = original.clone();
        stuck.apply_to_chain("cpu", &mut w);
        let once = w.clone();
        stuck.apply_to_chain("cpu", &mut w);
        prop_assert_eq!(&w, &once, "stuck-at must be idempotent");
        prop_assert!(w.get(bit));
    }

    /// Wilson intervals always bracket the point estimate within [0, 1].
    #[test]
    fn wilson_brackets_estimate(k in 0usize..500, extra in 0usize..500) {
        let n = k + extra;
        let p = wilson(k, n);
        if n > 0 {
            prop_assert!(p.lo <= p.p + 1e-12);
            prop_assert!(p.p <= p.hi + 1e-12);
            prop_assert!((0.0..=1.0).contains(&p.lo));
            prop_assert!((0.0..=1.0).contains(&p.hi));
        }
    }

    /// Liveness analysis: a location written at `w` and never read in
    /// between is dead for every injection time in `(r, w]` where `r` is
    /// the last read before it.
    #[test]
    fn liveness_windows(read_t in 0u64..50, gap in 1u64..50) {
        let write_t = read_t + gap;
        let trace = vec![
            TraceStep { time: read_t, reads: vec!["R0".into()], writes: vec![], is_branch: false, is_call: false },
            TraceStep { time: write_t, reads: vec![], writes: vec!["R0".into()], is_branch: false, is_call: false },
        ];
        let analysis = LivenessAnalysis::from_trace(&trace);
        // Any time in (read_t, write_t] is dead.
        for t in [read_t + 1, write_t] {
            prop_assert!(analysis.is_dead("R0", t), "t={t}");
        }
        // At or before the read the fault is live.
        prop_assert!(!analysis.is_dead("R0", read_t));
        // After the write, no more uses: latent, not dead.
        prop_assert!(!analysis.is_dead("R0", write_t + 1));
    }

    /// Campaign merge is associative in effect: merging [a, b, c] equals
    /// merging [merge(a, b), c] in selectors and experiment count.
    #[test]
    fn merge_is_associative(na in 1usize..50, nb in 1usize..50, nc in 1usize..50) {
        let mk = |name: &str, field: &str, n: usize| {
            Campaign::builder(name, "t", "w")
                .select(LocationSelector::Chain { chain: "cpu".into(), field: Some(field.into()) })
                .window(0, 10)
                .experiments(n)
                .build()
                .unwrap()
        };
        let a = mk("a", "R0", na);
        let b = mk("b", "R1", nb);
        let c = mk("c", "R0", nc);
        let flat = Campaign::merge("m", &[&a, &b, &c]).unwrap();
        let ab = Campaign::merge("ab", &[&a, &b]).unwrap();
        let nested = Campaign::merge("m", &[&ab, &c]).unwrap();
        prop_assert_eq!(flat.selectors, nested.selectors);
        prop_assert_eq!(flat.experiments, nested.experiments);
    }
}
