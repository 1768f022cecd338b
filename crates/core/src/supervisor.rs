//! Migration supervision: deadlines, stall detection, bounded
//! exponential backoff, and graceful degradation.
//!
//! The protocol layers below ([`crate::me`], [`crate::transfer`]) make a
//! single migration *resumable*; this module makes a fleet of them
//! *convergent* under injected faults. A [`MigrationSupervisor`] drives
//! a set of `(source, destination)` pairs to one of exactly two ends:
//!
//! * **Released** — the destination became [`AppStatus::Ready`] holding
//!   the transferred state (the protocol's digest checks guarantee it is
//!   bit-identical), exactly once; or
//! * **Aborted** — the retry budget or deadline lapsed, and the
//!   migration was torn down with the **source still authoritative**:
//!   retained migration data intact in the source ME, a durable
//!   checkpoint on the source disk, and the destination's staged state
//!   discarded (never half-released).
//!
//! All timing — deadlines, backoff waits, stall detection — runs on
//! virtual [`SimTime`], so supervised chaos runs stay deterministic.
//! Machine-level faults (ME crashes, scheduled ECALL aborts) reach the
//! supervisor through a caller-supplied poll callback returning
//! [`HostFault`]s; the supervisor applies them through the datacenter's
//! ordinary recovery surfaces ([`Datacenter::restart_me`]) so chaos
//! exercises exactly the paths operators would use. Every recovery
//! action is recorded as a trace edge ([`Edge::Backoff`], [`Edge::Abort`],
//! [`Edge::Fault`]) on the affected source→destination channel, so the
//! exported trace accounts for the full fault/recovery history.

use crate::datacenter::Datacenter;
use crate::host::AppStatus;
use cloud_sim::clock::SimTime;
use mig_trace::Edge;
use sgx_sim::machine::MachineId;
use sgx_sim::measurement::MrEnclave;
use std::time::Duration;

/// Cap on the backoff exponent: attempt *n* waits
/// `backoff_base * 2^min(n-1, BACKOFF_EXP_CAP)` of virtual time.
pub const BACKOFF_EXP_CAP: u32 = 10;
/// Default virtual-time deadline for one supervised migration; past it
/// the supervisor aborts with the source still authoritative.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(30);
/// Default recovery-attempt budget per migration.
pub const DEFAULT_RETRY_BUDGET: u32 = 6;
/// Default base of the bounded exponential backoff (attempt *n* waits
/// `backoff_base * 2^(n-1)` of virtual time).
pub const DEFAULT_BACKOFF_BASE: Duration = Duration::from_millis(5);

/// World-pump batch between host-fault polls. Small enough that a
/// scheduled crash lands within a bounded number of deliveries of its
/// instant, large enough to keep poll overhead negligible.
const STEP_BATCH: usize = 64;

/// Supervision knobs. They live on the host: no enclave reads them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Virtual-time budget for one supervised migration; past it the
    /// migration aborts with the source authoritative.
    pub deadline: Duration,
    /// Recovery attempts per migration before giving up. Zero means a
    /// single attempt with no recovery.
    pub retry_budget: u32,
    /// Base of the bounded exponential backoff between recovery
    /// attempts.
    pub backoff_base: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            deadline: DEFAULT_DEADLINE,
            retry_budget: DEFAULT_RETRY_BUDGET,
            backoff_base: DEFAULT_BACKOFF_BASE,
        }
    }
}

/// Why a supervised migration gave up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// The virtual-time deadline lapsed.
    DeadlineExceeded,
    /// Every recovery attempt in the budget was spent, with at least
    /// some forward progress observed along the way.
    RetryBudgetExhausted,
    /// The budget was spent and the transfer fingerprint never advanced
    /// across any attempt — the peer is treated as dead.
    DeadPeer,
}

/// Terminal state of one supervised migration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrationOutcome {
    /// The destination released the state exactly once.
    Released {
        /// Virtual time from supervision start to release.
        elapsed: Duration,
        /// Recovery attempts that were needed.
        retries: u32,
    },
    /// The migration was torn down, source still authoritative.
    Aborted {
        /// Why the supervisor gave up.
        reason: AbortReason,
        /// Recovery attempts that were spent.
        retries: u32,
    },
}

impl MigrationOutcome {
    /// Whether this outcome is a release.
    #[must_use]
    pub fn is_released(&self) -> bool {
        matches!(self, MigrationOutcome::Released { .. })
    }

    /// Recovery attempts spent on this migration.
    #[must_use]
    pub fn retries(&self) -> u32 {
        match self {
            MigrationOutcome::Released { retries, .. }
            | MigrationOutcome::Aborted { retries, .. } => *retries,
        }
    }
}

/// A machine-level fault the supervisor must apply through the
/// datacenter's recovery surfaces. Produced by a chaos layer's poll
/// callback; this crate deliberately does not depend on the chaos crate
/// (the dependency points the other way).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostFault {
    /// Crash and restart the Migration Enclave on this machine.
    CrashMe(MachineId),
    /// Abort the next ECALL on this machine (AEX-style).
    EcallAbort(MachineId),
}

/// Per-pair bookkeeping while a supervised run is in flight.
struct Supervised {
    src: String,
    dst: String,
    src_machine: MachineId,
    dst_machine: MachineId,
    mr: MrEnclave,
    retries: u32,
    /// Last observed `(acked, total)` fingerprint of the stream.
    fingerprint: Option<(u32, u32)>,
    /// Whether any recovery attempt ever observed forward progress.
    progressed: bool,
    outcome: Option<MigrationOutcome>,
}

/// Drives a set of migrations to convergence under faults.
#[derive(Clone, Copy, Debug, Default)]
pub struct MigrationSupervisor {
    config: SupervisorConfig,
}

impl MigrationSupervisor {
    /// A supervisor with explicit knobs.
    #[must_use]
    pub fn new(config: SupervisorConfig) -> Self {
        MigrationSupervisor { config }
    }

    /// Supervises the migrations `pairs` (source instance, destination
    /// instance) to completion. All pairs are started concurrently and
    /// multiplex on the shared ME channels. `poll` is invoked between
    /// world-pump batches and whenever the world goes idle; the
    /// [`HostFault`]s it returns are applied through
    /// [`Datacenter::restart_me`] and the scheduled-ECALL-abort hook.
    ///
    /// Returns one [`MigrationOutcome`] per pair, in `pairs` order.
    pub fn run(
        &self,
        dc: &mut Datacenter,
        pairs: &[(&str, &str)],
        mut poll: impl FnMut(&mut Datacenter) -> Vec<HostFault>,
    ) -> Vec<MigrationOutcome> {
        let started = dc.world().now();
        let deadline_at = started.after(self.config.deadline);

        let mut supervised: Vec<Supervised> = pairs
            .iter()
            .map(|(src, dst)| Supervised {
                src: (*src).to_string(),
                dst: (*dst).to_string(),
                src_machine: dc.app_machine(src),
                dst_machine: dc.app_machine(dst),
                mr: dc.app(src).lock().enclave().identity().mr_enclave,
                retries: 0,
                fingerprint: None,
                progressed: false,
                outcome: None,
            })
            .collect();

        // Kick off every migration; a start failure is just the first
        // failed attempt — the recovery loop below owns it.
        for pair in &mut supervised {
            let dst_machine = pair.dst_machine;
            let app = dc.app(&pair.src);
            let result = app
                .lock()
                .migrate_to(dc.world_mut().network_mut(), dst_machine);
            drop(app);
            if result.is_err() {
                Self::record_edge(dc, pair, Edge::Fault);
            }
        }

        loop {
            self.pump(dc, &supervised, &mut poll);
            let now = dc.world().now();

            // Settle every pair we can.
            for pair in &mut supervised {
                if pair.outcome.is_none() && Self::is_released(dc, pair) {
                    pair.outcome = Some(MigrationOutcome::Released {
                        elapsed: now.since(started),
                        retries: pair.retries,
                    });
                }
            }
            if supervised.iter().all(|p| p.outcome.is_some()) {
                break;
            }

            // The world is idle and at least one pair is unfinished:
            // recovery (or abort) time.
            for pair in &mut supervised {
                if pair.outcome.is_some() {
                    continue;
                }
                if now >= deadline_at {
                    self.abort(dc, pair, AbortReason::DeadlineExceeded, started);
                    continue;
                }
                pair.retries += 1;
                Self::note_progress(dc, pair);
                if pair.retries > self.config.retry_budget {
                    let reason = if pair.progressed {
                        AbortReason::RetryBudgetExhausted
                    } else {
                        AbortReason::DeadPeer
                    };
                    self.abort(dc, pair, reason, started);
                    continue;
                }
                self.recover(dc, pair);
            }
        }

        supervised
            .into_iter()
            .map(|p| p.outcome.expect("every pair settled"))
            .collect()
    }

    /// Pumps the world dry, interleaving host-fault polls so scheduled
    /// crashes land between deliveries. Returns once the world is idle
    /// *and* a final poll produced no new faults.
    fn pump(
        &self,
        dc: &mut Datacenter,
        supervised: &[Supervised],
        poll: &mut impl FnMut(&mut Datacenter) -> Vec<HostFault>,
    ) {
        loop {
            let faults = poll(dc);
            let had_faults = !faults.is_empty();
            for fault in faults {
                Self::apply_host_fault(dc, supervised, fault);
            }
            let mut stepped = false;
            for _ in 0..STEP_BATCH {
                if !dc.world_mut().step() {
                    break;
                }
                stepped = true;
            }
            if !stepped && !had_faults {
                return;
            }
        }
    }

    /// Applies one machine-level fault through ordinary recovery
    /// surfaces, recording an [`Edge::Fault`] on every supervised
    /// channel touching the machine.
    fn apply_host_fault(dc: &mut Datacenter, supervised: &[Supervised], fault: HostFault) {
        let machine = match fault {
            HostFault::CrashMe(m) | HostFault::EcallAbort(m) => m,
        };
        for pair in supervised {
            if pair.outcome.is_none()
                && (pair.src_machine == machine || pair.dst_machine == machine)
            {
                Self::record_edge(dc, pair, Edge::Fault);
            }
        }
        match fault {
            HostFault::CrashMe(m) => {
                // A restart can itself hit an injected fault (e.g. a
                // scheduled ECALL abort landing on the fresh ME's
                // keygen); injected faults are consumed once, so one
                // more attempt brings the ME back. The recovery loop
                // re-attests afterwards.
                if dc.restart_me(m).is_err() {
                    let _ = dc.restart_me(m);
                }
            }
            HostFault::EcallAbort(m) => {
                let sgx = &dc.world_mut().machine(m).sgx;
                let next = sgx.ecall_count();
                sgx.schedule_ecall_abort(next);
            }
        }
    }

    /// One recovery attempt: bounded-exponential backoff (consuming
    /// virtual time), re-attest both endpoints, re-dispatch the retained
    /// transfer.
    fn recover(&self, dc: &mut Datacenter, pair: &mut Supervised) {
        Self::record_edge(dc, pair, Edge::Backoff);
        let exp = (pair.retries - 1).min(BACKOFF_EXP_CAP);
        let wait = self.config.backoff_base * 2u32.pow(exp);
        dc.world_mut().network_mut().consume(wait);

        // Both endpoints may have lost their attested ME sessions to a
        // crash; re-attesting is harmless when the session is intact.
        // Re-attesting the destination also re-triggers delivery of any
        // parked incoming data (the LA-completion forward path).
        for instance in [pair.src.clone(), pair.dst.clone()] {
            let app = dc.app(&instance);
            app.lock().attest_me(dc.world_mut().network_mut());
        }
        dc.world_mut().run_until_idle();

        let me = dc.me_host(pair.src_machine);
        let result = {
            let mut me = me.lock();
            let (mr, dst) = (pair.mr, pair.dst_machine);
            me.retry_migration(dc.world_mut().network_mut(), mr, dst)
        };
        if result.is_err() {
            // The retry ECALL itself failed (ME mid-restart, injected
            // ECALL abort): the attempt is spent, the next loop
            // iteration backs off further.
            Self::record_edge(dc, pair, Edge::Fault);
        }
    }

    /// Tears a migration down with the source left authoritative:
    /// discard the destination's staged state, checkpoint the source
    /// ME's retained data durably, record the abort edge.
    fn abort(
        &self,
        dc: &mut Datacenter,
        pair: &mut Supervised,
        reason: AbortReason,
        started: SimTime,
    ) {
        // The release may have landed between the last pump and now.
        if Self::is_released(dc, pair) {
            pair.outcome = Some(MigrationOutcome::Released {
                elapsed: dc.world().now().since(started),
                retries: pair.retries,
            });
            return;
        }
        // Destination side: drop staged state. A refusal means the data
        // already reached the destination library — then the pair is
        // released, not aborted (checked above and again below after the
        // world settles).
        let me = dc.me_host(pair.dst_machine);
        let _ = me.lock().abort_incoming(pair.mr);
        dc.world_mut().run_until_idle();
        if Self::is_released(dc, pair) {
            pair.outcome = Some(MigrationOutcome::Released {
                elapsed: dc.world().now().since(started),
                retries: pair.retries,
            });
            return;
        }
        // Source side: make the retained state durable. A failed write
        // (injected disk fault) keeps the previous checkpoint
        // generation authoritative, which is still a consistent abort.
        let _ = dc.persist_me(pair.src_machine);
        Self::record_edge(dc, pair, Edge::Abort);
        pair.outcome = Some(MigrationOutcome::Aborted {
            reason,
            retries: pair.retries,
        });
    }

    /// Whether the destination has released: it is the single place the
    /// transferred state becomes live, so destination `Ready` *is* the
    /// release event (the source may still await its DONE confirmation).
    fn is_released(dc: &Datacenter, pair: &Supervised) -> bool {
        dc.app(&pair.dst).lock().status() == AppStatus::Ready
    }

    /// Samples the stream fingerprint and flags forward progress.
    fn note_progress(dc: &mut Datacenter, pair: &mut Supervised) {
        let me = dc.me_host(pair.src_machine);
        let sample = me
            .lock()
            .stream_progress(pair.mr)
            .ok()
            .flatten()
            .map(|p| (p.acked, p.total_chunks));
        if sample.is_some() && pair.fingerprint.is_some() && sample != pair.fingerprint {
            pair.progressed = true;
        }
        if sample.is_some() {
            pair.fingerprint = sample;
        }
    }

    /// Records `edge` on the pair's source→destination channel trace in
    /// the **source** ME host (the side that stays authoritative and
    /// whose trace the fleet exporter reads first).
    fn record_edge(dc: &Datacenter, pair: &Supervised, edge: Edge) {
        let now = dc.world().now();
        dc.me_host(pair.src_machine).lock().record_channel_edge(
            pair.src_machine,
            pair.dst_machine,
            now,
            edge,
        );
    }
}
