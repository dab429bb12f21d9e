//! Mutation coverage: every seeded protocol bug must be caught by the
//! bounded model checker, and the faithful protocols must pass — the
//! checker's own false-positive/false-negative regression suite.

use db_check::explore::{replay, Explorer, Outcome};
use db_check::proto_model::{ProtoModel, ProtoMutation, ProtoScenario};
use db_check::ring_model::{RingModel, RingMutation, RingScenario};

fn explorer() -> Explorer {
    Explorer::default()
}

#[test]
fn faithful_ring_protocol_passes() {
    let outcome = explorer().run(&RingModel::new(RingScenario::small()));
    assert!(
        outcome.passed(),
        "faithful StampedRing transcription failed: {outcome:?}"
    );
    let stats = outcome.stats();
    assert!(stats.states > 100, "suspiciously small space: {stats:?}");
    assert!(stats.final_states > 0);
}

#[test]
fn every_ring_mutation_is_caught_and_replayable() {
    for m in RingMutation::ALL {
        let model = RingModel::new(RingScenario::small().with_mutation(m));
        match explorer().run(&model) {
            Outcome::Fail {
                violation,
                schedule,
                ..
            } => {
                // The counterexample schedule must reproduce the same
                // oracle failure from the initial state.
                let replayed =
                    replay(&model, &schedule).expect_err("replay of a counterexample must fail");
                assert_eq!(
                    replayed.oracle, violation.oracle,
                    "{m:?}: replay diverged from the reported violation"
                );
            }
            other => panic!("mutation {m:?} escaped the model checker: {other:?}"),
        }
    }
}

#[test]
fn faithful_handshake_passes_on_all_shapes() {
    for (name, sc) in [
        ("path4", ProtoScenario::path4(2)),
        ("star4", ProtoScenario::star4(2)),
        ("diamond4", ProtoScenario::diamond4(2)),
    ] {
        let outcome = explorer().run(&ProtoModel::new(sc));
        assert!(outcome.passed(), "faithful {name} failed: {outcome:?}");
    }
}

#[test]
fn every_proto_mutation_is_caught_and_replayable() {
    // Each mutation paired with the graph shape that exposes it:
    // the termination race needs depth (path), the double-steal needs
    // fan-out (star), the visited race needs two parents of one child
    // (diamond).
    let cases = [
        (ProtoMutation::PublishBeforeLive, ProtoScenario::path4(2)),
        (ProtoMutation::StealDuplicates, ProtoScenario::star4(2)),
        (ProtoMutation::SkipVisitedCas, ProtoScenario::diamond4(2)),
    ];
    assert_eq!(cases.len(), ProtoMutation::ALL.len());
    for (m, sc) in cases {
        let model = ProtoModel::new(sc.with_mutation(m));
        match explorer().run(&model) {
            Outcome::Fail {
                violation,
                schedule,
                ..
            } => {
                let replayed =
                    replay(&model, &schedule).expect_err("replay of a counterexample must fail");
                assert_eq!(
                    replayed.oracle, violation.oracle,
                    "{m:?}: replay diverged from the reported violation"
                );
            }
            other => panic!("mutation {m:?} escaped the model checker: {other:?}"),
        }
    }
}

#[test]
fn three_worker_handshake_still_passes() {
    // One size up from the mutation configs: the faithful handshake
    // with a third worker (more steal interleavings) stays green.
    let outcome = explorer().run(&ProtoModel::new(ProtoScenario::star4(3)));
    assert!(outcome.passed(), "{outcome:?}");
}

#[test]
fn unclaimed_slot_keeps_every_oracle_and_mutation_check() {
    // Three workers, the third never starting: the schedule where no
    // helper claimed a gang slot. The faithful handshake still passes on
    // every shape, and each seeded bug is still caught and replayable.
    let shapes = [
        ProtoScenario::path4(3).with_unclaimed(1),
        ProtoScenario::star4(3).with_unclaimed(1),
        ProtoScenario::diamond4(3).with_unclaimed(1),
    ];
    for sc in &shapes {
        let outcome = explorer().run(&ProtoModel::new(sc.clone()));
        assert!(outcome.passed(), "faithful {sc:?} failed: {outcome:?}");
    }
    let cases = [
        (ProtoMutation::PublishBeforeLive, &shapes[0]),
        (ProtoMutation::StealDuplicates, &shapes[1]),
        (ProtoMutation::SkipVisitedCas, &shapes[2]),
    ];
    assert_eq!(cases.len(), ProtoMutation::ALL.len());
    for (m, sc) in cases {
        let model = ProtoModel::new(sc.clone().with_mutation(m));
        match explorer().run(&model) {
            Outcome::Fail {
                violation,
                schedule,
                ..
            } => {
                let replayed =
                    replay(&model, &schedule).expect_err("replay of a counterexample must fail");
                assert_eq!(replayed.oracle, violation.oracle, "{m:?}: replay diverged");
            }
            other => panic!("mutation {m:?} escaped with an unclaimed slot: {other:?}"),
        }
    }
}

#[test]
fn caller_alone_finishes_the_handshake() {
    // Every helper slot unclaimed: worker 0 must drain the graph itself.
    let outcome = explorer().run(&ProtoModel::new(ProtoScenario::star4(3).with_unclaimed(2)));
    assert!(outcome.passed(), "{outcome:?}");
    assert!(outcome.stats().final_states > 0);
}
