//! The fleet protocol checks CI relies on, as a test suite: the
//! declared protocols hold exhaustively within the configured bounds,
//! and each runtime reproduction of a `--cfg sync_mutant` ordering bug
//! is caught with a minimal failing interleaving trace.
#![cfg(feature = "model")]
// The mutant expectations invert under a sync_mutant build of
// `tagbreathe` (the declared constants ARE the weakened protocol);
// `syncmodel_check` handles both, the suite pins the shipped build.
#![cfg(not(sync_mutant))]

use tagbreathe_syncmodel::explore::{explore, random_walks, Limits, Verdict};
use tagbreathe_syncmodel::machines::{
    BarrierMachine, DrainMachine, RingMachine, RingProtocol, WakeMachine,
};

fn ring(capacity: u64, proto: RingProtocol) -> RingMachine {
    RingMachine {
        capacity,
        messages: 3,
        words: 2,
        proto,
    }
}

#[test]
fn declared_ring_protocol_is_exhaustively_clean() {
    for capacity in [1, 2] {
        let verdict = explore(
            &ring(capacity, RingProtocol::declared()),
            &Limits::default(),
        );
        match verdict {
            Verdict::Pass { complete, states } => {
                assert!(complete, "cap {capacity}: truncated at {states} states");
            }
            Verdict::Fail { message, trace, .. } => {
                panic!("cap {capacity}: {message}\n{trace:#?}")
            }
        }
    }
}

#[test]
fn relaxed_publish_mutant_is_caught_with_minimal_trace() {
    let verdict = explore(
        &ring(1, RingProtocol::relaxed_publish_mutant()),
        &Limits::default(),
    );
    let Verdict::Fail { message, trace, .. } = verdict else {
        panic!("relaxed publish must break FIFO slot delivery: {verdict:?}");
    };
    assert!(message.contains("slot"), "{message}");
    // The minimal counterexample: 3 producer steps to publish one
    // message, the consumer observes the counter, branches into the
    // read, and both stale word reads — 8 interleaving steps.
    assert_eq!(trace.len(), 8, "{trace:#?}");
    assert!(
        trace.iter().any(|s| s.contains("publish head=1 (Relaxed)")),
        "{trace:#?}"
    );
}

#[test]
fn relaxed_observe_mutant_is_caught_with_minimal_trace() {
    let verdict = explore(
        &ring(1, RingProtocol::relaxed_observe_mutant()),
        &Limits::default(),
    );
    let Verdict::Fail { message, trace, .. } = verdict else {
        panic!("relaxed observe must break FIFO slot delivery: {verdict:?}");
    };
    assert!(message.contains("slot"), "{message}");
    assert_eq!(trace.len(), 8, "{trace:#?}");
    assert!(
        trace.iter().any(|s| s.contains("observe head=1 (Relaxed)")),
        "{trace:#?}"
    );
}

#[test]
fn epoch_barrier_declared_passes_and_mutant_fails_at_two_shards() {
    assert!(
        explore(&BarrierMachine::declared(2), &Limits::default()).passed(),
        "declared epoch barrier must hold"
    );
    let verdict = explore(
        &BarrierMachine::relaxed_publish_mutant(2),
        &Limits::default(),
    );
    let Verdict::Fail { message, .. } = verdict else {
        panic!("relaxed epoch publish must leak a stale part: {verdict:?}");
    };
    assert!(message.contains("stale"), "{message}");
}

#[test]
fn finish_drain_declared_is_quiescent_and_relaxed_stop_loses_messages() {
    assert!(
        explore(&DrainMachine::declared(1, 2), &Limits::default()).passed(),
        "declared drain must deliver every message"
    );
    let verdict = explore(&DrainMachine::relaxed_stop_mutant(1, 2), &Limits::default());
    let Verdict::Fail { message, .. } = verdict else {
        panic!("relaxed stop publish must allow an early drain exit: {verdict:?}");
    };
    assert!(message.contains("lost publication"), "{message}");
}

#[test]
fn random_deep_walks_are_deterministic_and_catch_the_mutant() {
    let mutant = RingMachine {
        capacity: 4,
        messages: 8,
        words: 3,
        proto: RingProtocol::relaxed_publish_mutant(),
    };
    let a = random_walks(&mutant, 300, 400, 0xDEED);
    let b = random_walks(&mutant, 300, 400, 0xDEED);
    assert_eq!(
        a.as_ref().map(|(m, t)| (m.clone(), t.len())),
        b.as_ref().map(|(m, t)| (m.clone(), t.len())),
        "same seed must replay the same walk"
    );
    assert!(a.is_some(), "300 deep walks should stumble on the bug");

    let declared = RingMachine {
        proto: RingProtocol::declared(),
        ..mutant
    };
    assert!(
        random_walks(&declared, 100, 400, 0xDEED).is_none(),
        "declared protocol must stay clean under random walks"
    );
}

#[test]
fn wake_handshake_declared_never_strands_a_parked_worker() {
    for (capacity, messages, batch) in [(1, 3, 2), (2, 4, 3), (2, 3, 1)] {
        let verdict = explore(
            &WakeMachine::declared(capacity, messages, batch),
            &Limits::default(),
        );
        match verdict {
            Verdict::Pass { complete, states } => {
                assert!(complete, "cap {capacity}: truncated at {states} states");
            }
            Verdict::Fail { message, trace, .. } => {
                panic!("cap {capacity} n={messages} batch={batch}: {message}\n{trace:#?}")
            }
        }
    }
    // The handshake's edge is the park token's Release/Acquire pair, not
    // the ring counters': it holds with both ring orderings weakened.
    let weakened = WakeMachine {
        ring: RingProtocol {
            publish: std::sync::atomic::Ordering::Relaxed,
            observe: std::sync::atomic::Ordering::Relaxed,
            slot: std::sync::atomic::Ordering::Relaxed,
        },
        ..WakeMachine::declared(1, 3, 2)
    };
    assert!(explore(&weakened, &Limits::default()).passed());
}

#[test]
fn unpark_before_publish_mutant_loses_a_wakeup() {
    let verdict = explore(
        &WakeMachine::unpark_before_publish_mutant(1, 1, 1),
        &Limits::default(),
    );
    let Verdict::Fail { message, trace, .. } = verdict else {
        panic!("unpark before publish must strand the consumer: {verdict:?}");
    };
    assert!(message.contains("lost wakeup"), "{message}");
    assert!(message.contains("has finished"), "{message}");
    // The wake is spent on an empty ring: unpark, consumer parks
    // (returns at once), re-polls empty, parks for real, then the
    // publish lands with nobody left to wake the consumer.
    let unpark = trace.iter().position(|s| s.contains("unpark"));
    let publish = trace.iter().position(|s| s.contains("publish head=1"));
    assert!(unpark < publish, "{trace:#?}");
}
