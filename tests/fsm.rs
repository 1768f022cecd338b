//! Property tests over the Migration Enclave's session-layer state
//! machines ([`SenderFsm`] / [`ReceiverFsm`]): random event traces must
//! never reach an inconsistent state, invalid events must be rejected
//! without side effects, and crash/resume replays must converge on the
//! same released state.

use mig_core::error::MigError;
use mig_core::library::state::{MigrationData, COUNTER_SLOTS};
use mig_core::me::{ReceiverFsm, ReceiverRelease, SenderFsm, StreamProgress};
use mig_core::transfer::chunker::{ChunkAssembler, ChunkStream};
use mig_core::transfer::delta::{self, DeltaManifest, DigestedState, PageDigests};
use proptest::prelude::*;
use sgx_sim::machine::MachineId;
use sgx_sim::measurement::MrEnclave;

const N_CHUNKS: u32 = 4;
const CHUNK: u32 = 4096;

fn fresh_progress() -> StreamProgress {
    StreamProgress::new(
        [1; 16],
        CHUNK,
        u64::from(N_CHUNKS) * u64::from(CHUNK),
        1,
        None,
    )
}

fn data() -> MigrationData {
    MigrationData {
        counters_active: [false; COUNTER_SLOTS],
        counter_values: [0; COUNTER_SLOTS],
        msk: [9; 16],
    }
}

/// Structural invariants that must hold in *every* reachable sender
/// state, no matter the event trace.
fn assert_sender_invariants(fsm: &SenderFsm) {
    if let Some(s) = fsm.stream() {
        assert!(s.acked() <= s.n_chunks(), "acked within the stream");
        assert!(s.next_to_send() >= s.acked(), "never resend acked chunks");
        assert!(s.next_to_send() <= s.n_chunks(), "cursor within the stream");
    }
    match fsm.name() {
        "Complete" => assert!(
            fsm.stream().expect("Complete carries a stream").complete(),
            "Complete implies full cumulative ack"
        ),
        "Streaming" => assert!(
            !fsm.stream().expect("Streaming carries a stream").complete(),
            "Streaming is incomplete by construction"
        ),
        // AwaitingResume may hold a complete stream: a fully-acked
        // stream restored from a checkpoint renegotiates and resolves
        // to Stored.
        "AwaitingReceipt" | "AwaitingResume" | "Idle" | "Stored" => {}
        other => panic!("unknown state {other}"),
    }
    // Exactly the incomplete active states occupy a stream slot.
    assert_eq!(
        fsm.stream_active(),
        matches!(fsm.name(), "Streaming" | "AwaitingResume")
            && !fsm
                .stream()
                .expect("active states carry a stream")
                .complete()
    );
    // Chunks may only be granted while Streaming.
    assert_eq!(fsm.sendable_stream().is_some(), fsm.name() == "Streaming");
}

proptest! {
    /// Drives a random event trace into a `SenderFsm` and checks that
    /// (a) no inconsistent state is ever reachable, and (b) rejected
    /// events leave the machine exactly where it was.
    #[test]
    fn sender_fsm_no_invalid_state_reachable(raw in proptest::collection::vec(0u32..10_000u32, 1..80)) {
        let mut fsm = SenderFsm::Idle { stream: None };
        for v in raw {
            let before = fsm.name();
            let stream_before = fsm.stream().cloned();
            let upto = (v / 8) % (N_CHUNKS + 2); // occasionally beyond the end
            let result: Result<(), MigError> = match v % 8 {
                0 => fsm.dispatch_single_shot(),
                1 => fsm.dispatch_resume().map(|_| ()),
                2 => fsm.dispatch_announce(fresh_progress()),
                3 => fsm.on_ack(upto),
                4 => fsm.on_resume_point(upto),
                5 => fsm.on_stored().map(|_| ()),
                6 => fsm.on_delta_nack(),
                _ => {
                    fsm.reset_channel();
                    Ok(())
                }
            };
            if result.is_err() {
                prop_assert_eq!(fsm.name(), before);
                prop_assert_eq!(fsm.stream().cloned(), stream_before);
            }
            assert_sender_invariants(&fsm);
        }
    }

    /// A sender stream interrupted by arbitrary crash/reconnect cycles
    /// (each losing the unacked tail, renegotiating a resume point at
    /// or below the last ack) always converges to `Complete` once the
    /// destination acknowledges everything — and never rewinds the
    /// cumulative ack across a crash.
    #[test]
    fn sender_crash_resume_replays_converge(
        steps in proptest::collection::vec(0u32..10_000u32, 0..24)
    ) {
        let mut fsm = SenderFsm::Idle { stream: None };
        fsm.dispatch_announce(fresh_progress()).unwrap();
        for v in steps {
            let (kind, k) = (v % 3, (v / 3) % (N_CHUNKS + 1));
            match kind {
                // A cumulative ack (may be stale — acked never rewinds).
                0 => {
                    let acked_before = fsm.stream().unwrap().acked();
                    if fsm.name() == "Streaming" || fsm.name() == "AwaitingResume" || fsm.name() == "Complete" {
                        fsm.on_ack(k).unwrap();
                        prop_assert!(fsm.stream().unwrap().acked() >= acked_before);
                    }
                }
                // Crash + persisted restore: progress survives as the
                // acked prefix; the channel must be renegotiated.
                1 => {
                    let s = fsm.stream().unwrap().clone();
                    fsm = SenderFsm::Idle {
                        stream: Some(StreamProgress::restored(
                            s.nonce(), CHUNK, u64::from(N_CHUNKS) * u64::from(CHUNK), s.generation(), s.delta_base(), s.acked(),
                        )),
                    };
                    let nonce = fsm.dispatch_resume().unwrap();
                    prop_assert_eq!(nonce, [1; 16]);
                    // The destination names a resume point at or below
                    // what we already sent; modelled here as ≤ acked.
                    let point = k.min(fsm.stream().unwrap().acked());
                    fsm.on_resume_point(point).unwrap();
                }
                // Live reconnect (RETRY): same convergence guarantee.
                _ => {
                    fsm.reset_channel();
                    if fsm.stream().is_some() {
                        fsm.dispatch_resume().unwrap();
                        let point = k.min(fsm.stream().unwrap().acked());
                        fsm.on_resume_point(point).unwrap();
                    } else {
                        fsm.dispatch_announce(fresh_progress()).unwrap();
                    }
                }
            }
            assert_sender_invariants(&fsm);
        }
        // The destination eventually acknowledges the full stream.
        if fsm.name() != "Complete" {
            fsm.on_ack(N_CHUNKS).unwrap();
        }
        prop_assert_eq!(fsm.name(), "Complete");
        prop_assert_eq!(fsm.stream().unwrap().acked(), N_CHUNKS);
        prop_assert_eq!(fsm.on_stored().unwrap(), Some(1));
    }

    /// Drives a receiver through a random interleaving of valid chunks,
    /// replays/skips (rejected, no progress), and crash/restore cycles
    /// — for full and delta streams, with the delta base retained or
    /// lost across each restart — and checks the released state always
    /// equals the sender's.
    #[test]
    fn receiver_fsm_replays_converge_on_the_same_state(
        seed in any::<u8>(),
        is_delta in any::<bool>(),
        base_at_announce in any::<bool>(),
        events in proptest::collection::vec(0u32..6u32, 0..40)
    ) {
        let base: Vec<u8> = (0..30_000u32).map(|i| (i as u8).wrapping_add(seed)).collect();
        let mut new_state = base.clone();
        new_state[7] ^= 0x5A;
        new_state[20_000] ^= 0xA5;
        let base = DigestedState::new(base);

        let (stream, manifest, expected) = if is_delta {
            let (dirty, payload) = delta::diff(base.bytes(), &new_state);
            let stream = ChunkStream::new([2; 16], CHUNK, payload);
            let digests = base
                .digests()
                .patch(new_state.len() as u64, &dirty, stream.leaves())
                .unwrap();
            let manifest = DeltaManifest::new(3, 4, base.digests(), &digests, dirty);
            (stream, Some(manifest), new_state.clone())
        } else {
            (ChunkStream::new([2; 16], CHUNK, new_state.clone()), None, new_state.clone())
        };

        // A delta stages onto the base when it is retained at announce
        // (or restore) time and defers the apply to release otherwise.
        let mut base_kept = base_at_announce;
        let mut fsm = match &manifest {
            Some(m) => ReceiverFsm::start_delta(
                MachineId(1), MrEnclave([4; 32]), data(), [2; 16], CHUNK,
                stream.digest(), m.clone(), base_kept.then_some(&base),
            ).unwrap(),
            None => ReceiverFsm::start_full(
                MachineId(1), MrEnclave([4; 32]), data(), [2; 16], 1,
                stream.total_len(), CHUNK, stream.digest(),
            ).unwrap(),
        };

        for e in events {
            if fsm.is_complete() {
                break;
            }
            let next = fsm.next_idx();
            match e {
                // Deliver the next chunk: always verifies and advances.
                0..=2 => {
                    let (c, m) = stream.chunk(next);
                    fsm.on_chunk(next, c, &m).unwrap();
                    prop_assert_eq!(fsm.next_idx(), next + 1);
                }
                // Replay an old chunk / skip ahead: rejected as a loss
                // artifact, progress untouched.
                3 | 4 => {
                    let idx = if e == 3 && next > 0 { next - 1 } else { next + 1 };
                    if idx < stream.n_chunks() {
                        let (c, m) = stream.chunk(idx);
                        let err = fsm.on_chunk(idx, c, &m).unwrap_err();
                        prop_assert!(matches!(err, MigError::Transfer("chunk index out of order")));
                        prop_assert_eq!(fsm.next_idx(), next);
                    }
                }
                // Crash: persist the assembler and restore — with the
                // delta base surviving the downtime or not.
                _ => {
                    let assembler = ChunkAssembler::from_bytes(&fsm.assembler_bytes()).unwrap();
                    base_kept = !base_kept;
                    fsm = ReceiverFsm::restore(
                        MachineId(1), MrEnclave([4; 32]), data(), fsm.generation(),
                        assembler, manifest.clone(), base_kept.then_some(&base),
                    );
                    prop_assert_eq!(fsm.next_idx(), next);
                    prop_assert_eq!(fsm.is_staged(), is_delta && base_kept);
                }
            }
        }
        for idx in fsm.next_idx()..stream.n_chunks() {
            let (c, m) = stream.chunk(idx);
            fsm.on_chunk(idx, c, &m).unwrap();
        }
        prop_assert!(fsm.is_complete());
        match fsm.release(Some(&base)).unwrap() {
            ReceiverRelease::Released { state, .. } => {
                prop_assert_eq!(&state.bytes()[..], &expected[..]);
                prop_assert_eq!(state.digests(), &PageDigests::compute(&expected));
            }
            ReceiverRelease::BaseMissing => prop_assert!(false, "base was supplied"),
        }
    }
}

/// The transition table itself, exercised event-by-event from every
/// state (the deterministic companion to the random traces above).
#[test]
#[allow(clippy::type_complexity)]
fn sender_transition_table_matrix() {
    type Event = (&'static str, fn(&mut SenderFsm) -> Result<(), MigError>);
    let events: Vec<Event> = vec![
        ("dispatch_single_shot", |f| f.dispatch_single_shot()),
        ("dispatch_resume", |f| f.dispatch_resume().map(|_| ())),
        ("dispatch_announce", |f| {
            f.dispatch_announce(fresh_progress())
        }),
        ("on_ack(1)", |f| f.on_ack(1)),
        ("on_resume_point(1)", |f| f.on_resume_point(1)),
        ("on_stored", |f| f.on_stored().map(|_| ())),
        ("on_delta_nack", |f| f.on_delta_nack()),
    ];
    // Builders for each reachable state.
    let states: Vec<(&'static str, fn() -> SenderFsm)> = vec![
        ("Idle", || SenderFsm::Idle { stream: None }),
        ("Idle+stream", || SenderFsm::Idle {
            stream: Some(fresh_progress()),
        }),
        ("AwaitingReceipt", || {
            let mut f = SenderFsm::Idle { stream: None };
            f.dispatch_single_shot().unwrap();
            f
        }),
        ("AwaitingResume", || {
            let mut f = SenderFsm::Idle {
                stream: Some(fresh_progress()),
            };
            f.dispatch_resume().unwrap();
            f
        }),
        ("Streaming", || {
            let mut f = SenderFsm::Idle { stream: None };
            f.dispatch_announce(fresh_progress()).unwrap();
            f
        }),
        ("Complete", || {
            let mut f = SenderFsm::Idle { stream: None };
            f.dispatch_announce(fresh_progress()).unwrap();
            f.on_ack(N_CHUNKS).unwrap();
            f
        }),
        ("Stored", || {
            let mut f = SenderFsm::Idle { stream: None };
            f.dispatch_single_shot().unwrap();
            f.on_stored().unwrap();
            f
        }),
    ];
    // Expected acceptance per (state, event): the full transition table.
    let accepts = |state: &str, event: &str| -> bool {
        matches!(
            (state, event),
            ("Idle", "dispatch_single_shot" | "dispatch_announce")
                | ("Idle+stream", "dispatch_resume")
                | ("AwaitingReceipt" | "Stored", "on_stored")
                | (
                    "AwaitingResume" | "Streaming",
                    "on_ack(1)" | "on_resume_point(1)" | "on_stored" | "on_delta_nack"
                )
                | ("Complete", "on_ack(1)" | "on_stored" | "on_delta_nack")
        )
    };
    for (sname, build) in &states {
        for (ename, apply) in &events {
            let mut fsm = build();
            let result = apply(&mut fsm);
            assert_eq!(
                result.is_ok(),
                accepts(sname, ename),
                "state {sname} × event {ename}: got {result:?}"
            );
            if result.is_err() {
                assert!(
                    matches!(
                        result,
                        Err(MigError::InvalidTransition { .. }) | Err(MigError::Protocol(_))
                    ),
                    "rejections are typed"
                );
            }
            assert_sender_invariants(&fsm);
        }
        // reset_channel is total: accepted everywhere, lands in Idle.
        let mut fsm = build();
        fsm.reset_channel();
        assert!(matches!(fsm, SenderFsm::Idle { .. }));
    }
}
