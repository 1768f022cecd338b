//! The untrusted host processes: [`MeHost`] (management VM) and
//! [`AppHost`] (guest VM application).
//!
//! Hosts are exactly as trusted as the paper assumes — not at all. They
//! relay opaque ciphertexts between enclaves, store sealed blobs on the
//! untrusted disk, and talk to the (simulated) IAS. Everything they touch
//! is adversary-visible; the protocol's security rests entirely on what
//! the enclaves verify.
//!
//! **Frames.** A network message is `[tag][u32 len][body]`. A ciphertext
//! a host relays without reading it already sits in an ECALL output in
//! that shape: behind its `u32` length, with a spare byte in front (the
//! flag of an optional byte string, or an envelope's lead byte, see
//! [`crate::harness`]). The host turns the output into the frame in
//! place: the wire tag overwrites the spare byte, the frame moves to the
//! buffer's front and the rest is cut off. The migration request
//! (`LIB_MSG`) and the ME's forward of an incoming migration
//! (`ME_FORWARD`) travel this way, so the state is never copied into a
//! frame of its own. Small frames are copied, and so are the small parts
//! of an output (acks, a second forward) before the output becomes a
//! frame. The sealed blob an app ECALL hands over is filed, shared,
//! under the state key and in the checkpoint series: in the ECALL's
//! buffer when it is most of it, with the small payload copied out, and
//! else as a copy.

use crate::harness::{encode_init, open_envelope, ops as lib_ops, ENVELOPE_HEAD};
use crate::library::InitRequest;
use crate::me::{ops as me_ops, read_opt, MeAction, RaResponseAuth, TelemetryReport};
use crate::remote_attest::RaHello;
use crate::transfer::checkpoint::CheckpointStore;
use cloud_sim::clock::{SimClock, SimTime};
use cloud_sim::disk::{DiskValue, UntrustedDisk};
use cloud_sim::network::{Endpoint, Network};
use cloud_sim::world::Service;
use mig_trace::{
    trace_from_label, Edge, Event, EventKind, MetricsRegistry, Phase, Recorder, Telemetry, TraceId,
    TransitionCount, LATENCY_BOUNDS_NS,
};
use sgx_sim::enclave::EnclaveHandle;
use sgx_sim::ias::AttestationService;
use sgx_sim::machine::MachineId;
use sgx_sim::measurement::MrEnclave;
use sgx_sim::quote::Quote;
use sgx_sim::wire::{WireReader, WireWriter};
use sgx_sim::SgxError;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

/// Parsed output of the ME's `LA_MSG2` ECALL: the framed msg3, the
/// attested measurement and where the optional forward ciphertext sits.
type LaMsg2Output = (Vec<u8>, MrEnclave, Option<Relay>);
/// Parsed output of the ME's `ACK` ECALL: kind, measurement, optional
/// trace id, optional completion ciphertext, and follow-on `TRANSFER`
/// containers for the peer (borrowed from the output).
type AckOutput<'a> = (
    u8,
    MrEnclave,
    Option<TraceId>,
    Option<&'a [u8]>,
    Vec<&'a [u8]>,
);

/// Reads a `u32` count, then that many length-prefixed byte strings,
/// borrowed from the reader's buffer.
fn read_list<'a>(r: &mut WireReader<'a>) -> Result<Vec<&'a [u8]>, SgxError> {
    let n = r.u32()? as usize;
    // Each item takes at least its 4-byte length: bound the count by the
    // input.
    let mut items = Vec::with_capacity(n.min(r.remaining() / 4));
    for _ in 0..n {
        items.push(r.bytes()?);
    }
    Ok(items)
}

/// Reads the optional 8-byte trace id the extended ECALL outputs carry.
fn read_trace(r: &mut WireReader<'_>) -> Result<Option<TraceId>, SgxError> {
    Ok(match read_opt(r)? {
        Some(bytes) => Some(bytes.try_into().map_err(|_| SgxError::Decode)?),
        None => None,
    })
}

/// Duration → whole nanoseconds, saturating (virtual times fit easily).
fn ns_u64(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Short stable tag for an enclave measurement in gauge names (first
/// four measurement bytes, hex). Measurements are public identities.
fn mr_tag(mr: &MrEnclave) -> String {
    mr.0[..4].iter().map(|b| format!("{b:02x}")).collect()
}

/// How many library persists elapse between durable checkpoint-store
/// generations written by an [`AppHost`].
pub const CHECKPOINT_INTERVAL: usize = 4;

/// Modelled IAS HTTPS round-trip latency (intra-region).
pub const IAS_ROUND_TRIP: Duration = Duration::from_millis(20);

/// Service name of the Migration Enclave host on each machine.
pub const ME_SERVICE: &str = "me";

/// Untrusted wire tags for host↔host messages.
pub mod tags {
    /// App → ME: request a local-attestation session.
    pub const LA_START: u8 = 1;
    /// ME → app: DH Msg1.
    pub const LA_MSG1: u8 = 2;
    /// App → ME: DH Msg2.
    pub const LA_MSG2: u8 = 3;
    /// ME → app: DH Msg3.
    pub const LA_MSG3: u8 = 4;
    /// App → ME: encrypted library message.
    pub const LIB_MSG: u8 = 5;
    /// ME → app: encrypted ME message (incoming migration / completion).
    pub const ME_FORWARD: u8 = 6;
    /// ME ↔ ME: remote-attestation hello.
    pub const RA_HELLO: u8 = 7;
    /// ME ↔ ME: remote-attestation response.
    pub const RA_RESPONSE: u8 = 8;
    /// ME ↔ ME: remote-attestation finish.
    pub const RA_FINISH: u8 = 9;
    /// ME ↔ ME: encrypted migration transfer (a container of sealed
    /// cells delivered in one enclave transition).
    pub const RA_TRANSFER: u8 = 10;
    /// ME ↔ ME: encrypted acknowledgement.
    pub const RA_ACK: u8 = 11;
}

/// Frames `payload` for the network in one buffer of its final size
/// (the copy the network's owned message costs).
fn frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(1 + 4 + payload.len());
    w.u8(tag).bytes(payload);
    w.finish()
}

/// Where a relayed ciphertext sits in an ECALL output: `at` is the
/// spare byte in front of its `u32` length, `len` its length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Relay {
    at: usize,
    len: usize,
}

impl Relay {
    /// Reads an optional byte string from `r`, noting where it sits in
    /// the output: `end` is the output offset at which `r`'s input ends.
    fn read_opt(r: &mut WireReader<'_>, end: usize) -> Result<Option<Self>, SgxError> {
        let at = end - r.remaining();
        Ok(read_opt(r)?.map(|ct| Relay { at, len: ct.len() }))
    }

    /// The ciphertext, borrowed from `out`.
    fn body<'a>(&self, out: &'a [u8]) -> &'a [u8] {
        &out[self.at + 5..self.at + 5 + self.len]
    }

    /// Turns `out` into the frame `frame(tag, body)` without copying the
    /// body: the tag overwrites the spare byte, the frame moves to the
    /// buffer's front (no move when it leads the output) and the rest of
    /// the output is cut off.
    fn frame(&self, mut out: Vec<u8>, tag: u8) -> Vec<u8> {
        out.truncate(self.at + 5 + self.len);
        out.drain(..self.at);
        if let Some(spare) = out.first_mut() {
            *spare = tag;
        }
        out
    }
}

/// An app ECALL's output once [`AppHost::store_persist`] filed its
/// persist blob: `buf` leads with the envelope's head and the `len`-byte
/// payload behind it.
struct Reply {
    buf: Vec<u8>,
    len: usize,
}

impl Reply {
    /// The payload, borrowed from the buffer.
    fn payload(&self) -> &[u8] {
        &self.buf[ENVELOPE_HEAD..ENVELOPE_HEAD + self.len]
    }
}

/// One record of the ME's `TRANSFER` ECALL output, with its small parts
/// copied out: kind, measurement, optional trace id, where the optional
/// forward ciphertext sits, and the optional ack, framed for the source.
struct TransferRecord {
    kind: u8,
    mr: MrEnclave,
    trace: Option<TraceId>,
    forward: Option<Relay>,
    ack: Option<Vec<u8>>,
}

/// The `ME_FORWARD` frames of `records` (parsed from `out`), one per
/// record, in order. The last forward leaves in `out`'s own buffer; an
/// earlier one (a container that released two streams) is copied out
/// while the output is still whole.
fn frame_forwards(out: Vec<u8>, records: &[TransferRecord]) -> Vec<Option<Vec<u8>>> {
    let in_place = records.iter().rposition(|record| record.forward.is_some());
    let mut out = Some(out);
    records
        .iter()
        .enumerate()
        .map(|(i, record)| {
            let relay = record.forward?;
            if Some(i) == in_place {
                out.take().map(|out| relay.frame(out, tags::ME_FORWARD))
            } else {
                out.as_deref()
                    .map(|out| frame(tags::ME_FORWARD, relay.body(out)))
            }
        })
        .collect()
}

/// Parses the ME's `TRANSFER` ECALL output: its records and the first
/// rejected cell's error, if any.
fn parse_transfer_output(out: &[u8]) -> Result<(Vec<TransferRecord>, Option<String>), SgxError> {
    let mut r = WireReader::new(out);
    let n = r.u32()? as usize;
    // Each record takes at least its 4-byte length: bound the count by
    // the input.
    let mut records = Vec::with_capacity(n.min(r.remaining() / 4));
    for _ in 0..n {
        let bytes = r.bytes()?;
        let end = out.len() - r.remaining();
        let mut rr = WireReader::new(bytes);
        let kind = rr.u8()?;
        let mr = MrEnclave(rr.array()?);
        let trace = read_trace(&mut rr)?;
        let forward = Relay::read_opt(&mut rr, end)?;
        let ack = read_opt(&mut rr)?.map(|ct| frame(tags::RA_ACK, ct));
        rr.finish()?;
        records.push(TransferRecord {
            kind,
            mr,
            trace,
            forward,
            ack,
        });
    }
    let rejected = read_opt(&mut r)?.map(|error| String::from_utf8_lossy(error).into_owned());
    r.finish()?;
    Ok((records, rejected))
}

/// Splits a network message into its tag and its body, borrowed.
fn unframe(bytes: &[u8]) -> Result<(u8, &[u8]), SgxError> {
    let mut r = WireReader::new(bytes);
    let tag = r.u8()?;
    let payload = r.bytes()?;
    r.finish()?;
    Ok((tag, payload))
}

/// An ECALL input: the untrusted routing prefix, then the ciphertext
/// behind its length, in one buffer of its final size (the one copy the
/// ECALL boundary costs).
fn ecall_input(prefix: &[u8], ct: &[u8]) -> Vec<u8> {
    let mut input = Vec::with_capacity(prefix.len() + 4 + ct.len());
    input.extend_from_slice(prefix);
    let mut w = WireWriter::from_vec(input);
    w.bytes(ct);
    w.finish()
}

// ---------------------------------------------------------------------
// MeHost
// ---------------------------------------------------------------------

/// Destination-side bookkeeping for one inbound chunk stream, in
/// virtual time: announcement arrival and first chunk arrival. The
/// completion frame's arrival closes the partition (see
/// [`MeHost::on_ra_transfer`]).
struct InboundSpan {
    /// Arrival of the `ChunkStart`/`DeltaStart` announcement.
    t0: SimTime,
    /// Arrival of the first data chunk, once seen.
    first_chunk: Option<SimTime>,
}

/// The untrusted host of a machine's Migration Enclave, running in the
/// management VM and registered as the machine's `"me"` service.
pub struct MeHost {
    endpoint: Endpoint,
    enclave: EnclaveHandle,
    ias: AttestationService,
    /// Shared handle on the world's deterministic clock; every trace
    /// timestamp and latency observation derives from it.
    clock: SimClock,
    /// App endpoint per attested enclave measurement (routing only).
    app_by_mr: HashMap<MrEnclave, Endpoint>,
    /// Reverse: attested measurement per app endpoint.
    mr_by_app: HashMap<Endpoint, MrEnclave>,
    /// Bounded ring buffer of migration trace events.
    recorder: Recorder,
    /// Host-side metrics: latency histograms and wire-layer gauges.
    registry: MetricsRegistry,
    /// Open inbound streams by trace id (span bookkeeping).
    inbound: BTreeMap<TraceId, InboundSpan>,
    /// Open channel negotiations by pseudo trace id (see
    /// [`MeHost::channel_trace`]).
    negotiating: BTreeMap<TraceId, SimTime>,
    /// Virtual send time of the last stream frame per peer machine;
    /// chunk acks from that peer observe the round trip against it.
    last_stream_send: HashMap<MachineId, SimTime>,
    /// Enclave quarantine-ledger entries already mirrored as edges.
    quarantines_seen: usize,
    /// Non-fatal protocol errors observed (visible to tests).
    pub errors: Vec<String>,
}

impl std::fmt::Debug for MeHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeHost")
            .field("endpoint", &self.endpoint)
            .field("apps", &self.app_by_mr.len())
            .field("errors", &self.errors.len())
            .finish_non_exhaustive()
    }
}

impl MeHost {
    /// Creates the host around a loaded, provisioned ME enclave.
    #[must_use]
    pub fn new(
        endpoint: Endpoint,
        enclave: EnclaveHandle,
        ias: AttestationService,
        clock: SimClock,
    ) -> Self {
        MeHost {
            endpoint,
            enclave,
            ias,
            clock,
            app_by_mr: HashMap::new(),
            mr_by_app: HashMap::new(),
            recorder: Recorder::default(),
            registry: MetricsRegistry::default(),
            inbound: BTreeMap::new(),
            negotiating: BTreeMap::new(),
            last_stream_send: HashMap::new(),
            quarantines_seen: 0,
            errors: Vec::new(),
        }
    }

    /// The ME enclave handle (diagnostics).
    #[must_use]
    pub fn enclave(&self) -> &EnclaveHandle {
        &self.enclave
    }

    /// Pseudo trace id for channel-scoped events (negotiation spans,
    /// retries): the channel has no transfer nonce yet, so both ends
    /// derive the id from the directed `source → destination` label.
    fn channel_trace(source: MachineId, destination: MachineId) -> TraceId {
        trace_from_label(&format!("m{}->m{}", source.0, destination.0))
    }

    fn record_edge(&mut self, trace: TraceId, at: SimTime, edge: Edge) {
        self.recorder.record_event(Event {
            at_ns: at.0,
            trace,
            kind: EventKind::Edge(edge),
        });
    }

    fn negotiate_begin(&mut self, trace: TraceId) {
        let now = self.clock.now();
        self.negotiating.entry(trace).or_insert(now);
    }

    fn negotiate_end(&mut self, trace: TraceId) {
        if let Some(t0) = self.negotiating.remove(&trace) {
            let now = self.clock.now();
            self.recorder.record_event(Event {
                at_ns: t0.0,
                trace,
                kind: EventKind::Span {
                    phase: Phase::Negotiate,
                    end_ns: now.0,
                },
            });
        }
    }

    /// Tracks an inbound stream-progress frame: the announcement stamps
    /// the stream's arrival, the first data chunk splits Announce from
    /// Stream.
    fn track_inbound(&mut self, trace: TraceId, now: SimTime, is_chunk: bool) {
        let span = self.inbound.entry(trace).or_insert(InboundSpan {
            t0: now,
            first_chunk: None,
        });
        if is_chunk && span.first_chunk.is_none() {
            span.first_chunk = Some(now);
        }
    }

    /// Closes the destination-side phase partition of a completed
    /// inbound stream: contiguous Announce/Stream/Stage/Release spans
    /// whose durations sum to the total time-to-release. Speculative
    /// staging overlaps the stream, so Stage is zero-width at the
    /// completion point by construction; Release is the virtual time
    /// the completing ECALL itself accounted.
    fn finish_inbound(&mut self, trace: TraceId, now: SimTime, release_ns: u64) {
        let span = self.inbound.remove(&trace).unwrap_or(InboundSpan {
            t0: now,
            first_chunk: None,
        });
        let t0 = span.t0.0;
        let t1 = span.first_chunk.map_or(now.0, |t| t.0);
        let t2 = now.0;
        let released = t2.saturating_add(release_ns);
        for (phase, at, end) in [
            (Phase::Announce, t0, t1),
            (Phase::Stream, t1, t2),
            (Phase::Stage, t2, t2),
            (Phase::Release, t2, released),
        ] {
            self.recorder.record_event(Event {
                at_ns: at,
                trace,
                kind: EventKind::Span { phase, end_ns: end },
            });
        }
        self.registry
            .observe_ns("me.time_to_release_ns", LATENCY_BOUNDS_NS, released - t0);
    }

    /// Mirrors enclave quarantine-ledger entries not yet seen as
    /// Quarantine edges, stamped with the current virtual time (the
    /// ledger itself is orderless on purpose — the enclave does not
    /// reveal when it quarantined).
    fn note_quarantines(&mut self, quarantined: &[[u8; 8]]) {
        let now = self.clock.now();
        for trace in quarantined.iter().skip(self.quarantines_seen) {
            self.record_edge(*trace, now, Edge::Quarantine);
            self.inbound.remove(trace);
        }
        self.quarantines_seen = quarantined.len();
    }

    /// Pulls the enclave's quarantine ledger after a rejected
    /// `TRANSFER` cell (best effort — telemetry must not mask the
    /// protocol error already recorded).
    fn sync_quarantine_edges(&mut self) {
        let Ok(out) = self.enclave.ecall(me_ops::TELEMETRY, &[]) else {
            return;
        };
        let Ok(report) = TelemetryReport::from_bytes(&out) else {
            return;
        };
        self.note_quarantines(&report.quarantined);
    }

    /// Snapshot of this machine's full telemetry: host-recorded trace
    /// events and histograms joined with the enclave's counters and
    /// wire-layer gauges (via the `TELEMETRY` ECALL) and the simulated
    /// CPU's ECALL/OCALL transition tally. Deterministic for a given
    /// seed; gauges are machine-scoped (`m<id>.…`) so fleet merges
    /// stay unambiguous, counters are plain names and fleet-additive.
    ///
    /// # Errors
    ///
    /// Enclave errors propagate; malformed telemetry output surfaces
    /// as [`SgxError::Decode`].
    pub fn telemetry(&mut self) -> Result<Telemetry, SgxError> {
        let report = TelemetryReport::from_bytes(&self.enclave.ecall(me_ops::TELEMETRY, &[])?)?;
        self.note_quarantines(&report.quarantined);
        let mut registry = self.registry.clone();
        for (name, value) in &report.counters {
            registry.bump_counter(name, *value);
        }
        let m = self.endpoint.machine.0;
        registry.set_gauge(
            &format!("m{m}.cache.bytes"),
            i64::try_from(report.cache_bytes).unwrap_or(i64::MAX),
        );
        for link in &report.links {
            let d = link.destination.0;
            registry.set_gauge(
                &format!("m{m}.link.m{d}.chunk_size"),
                i64::from(link.chunk_size),
            );
            registry.set_gauge(&format!("m{m}.link.m{d}.window"), i64::from(link.window));
            for (mr, deficit) in &link.deficits {
                registry.set_gauge(
                    &format!("m{m}.link.m{d}.deficit.{}", mr_tag(mr)),
                    i64::try_from(*deficit).unwrap_or(i64::MAX),
                );
            }
        }
        let mut telemetry = Telemetry::from_parts(&self.recorder, &registry);
        let tally = self.enclave.transition_tally();
        telemetry.transitions.total = TransitionCount {
            ecalls: tally.total.ecalls,
            ocalls: tally.total.ocalls,
        };
        for (trace, c) in tally.by_trace {
            telemetry.transitions.by_trace.insert(
                trace,
                TransitionCount {
                    ecalls: c.ecalls,
                    ocalls: c.ocalls,
                },
            );
        }
        Ok(telemetry)
    }

    fn fail(&mut self, context: &str, err: impl std::fmt::Display) {
        self.errors.push(format!("{context}: {err}"));
    }

    /// Quote → IAS evidence, charging the modelled round trip.
    fn ias_evidence(&mut self, net: &mut Network, quote_bytes: &[u8]) -> Option<Vec<u8>> {
        net.consume(IAS_ROUND_TRIP);
        let quote = match Quote::from_bytes(quote_bytes) {
            Ok(q) => q,
            Err(e) => {
                self.fail("parse quote", e);
                return None;
            }
        };
        match self.ias.verify_quote(&quote) {
            Ok(evidence) => Some(evidence.to_bytes()),
            Err(e) => {
                self.fail("ias verification", e);
                None
            }
        }
    }

    fn token_for(endpoint: &Endpoint) -> Vec<u8> {
        endpoint.to_string().into_bytes()
    }

    fn handle_action(&mut self, net: &mut Network, action_bytes: &[u8]) {
        let action = match MeAction::from_bytes(action_bytes) {
            Ok(a) => a,
            Err(e) => return self.fail("decode me action", e),
        };
        match action {
            MeAction::None => {}
            MeAction::ConnectRemote { destination, hello } => {
                let me = Endpoint::new(destination, ME_SERVICE);
                net.send(&self.endpoint, &me, frame(tags::RA_HELLO, &hello));
                self.negotiate_begin(Self::channel_trace(self.endpoint.machine, destination));
            }
            MeAction::SendRemote {
                destination,
                frames,
            } => {
                let me = Endpoint::new(destination, ME_SERVICE);
                self.send_transfers(net, &me, &frames);
            }
            MeAction::AckSource { source, ack } => {
                let me = Endpoint::new(source, ME_SERVICE);
                net.send(&self.endpoint, &me, frame(tags::RA_ACK, &ack));
            }
        }
    }

    /// Seals the ME's durable state for disk storage (host-driven
    /// checkpointing; the sealed blob is machine-bound).
    ///
    /// # Errors
    ///
    /// Enclave errors propagate (e.g. unprovisioned ME).
    pub fn persist_state(&mut self) -> Result<Vec<u8>, SgxError> {
        self.enclave.ecall(me_ops::PERSIST, &[])
    }

    /// Replaces the ME enclave after a management-VM restart, restoring
    /// durable state from `state` if provided. All attested sessions are
    /// ephemeral, so routing tables are cleared; application enclaves and
    /// peer MEs must re-attest.
    ///
    /// # Errors
    ///
    /// Restore failures propagate (tampered or foreign blob).
    pub fn replace_enclave(
        &mut self,
        enclave: EnclaveHandle,
        state: Option<&[u8]>,
    ) -> Result<(), SgxError> {
        if let Some(blob) = state {
            enclave.ecall(me_ops::RESTORE, blob)?;
        }
        self.enclave = enclave;
        self.app_by_mr.clear();
        self.mr_by_app.clear();
        Ok(())
    }

    /// Re-dispatches retained migration data for `mr` to `destination`
    /// (operator-driven error recovery; Fig. 2).
    pub fn retry_migration(
        &mut self,
        net: &mut Network,
        mr: MrEnclave,
        destination: MachineId,
    ) -> Result<(), SgxError> {
        let mut w = WireWriter::new();
        w.array(&mr.0);
        w.u64(destination.0);
        let action = self.enclave.ecall(me_ops::RETRY, &w.finish())?;
        let retry_trace = Self::channel_trace(self.endpoint.machine, destination);
        self.record_edge(retry_trace, self.clock.now(), Edge::Retry);
        self.handle_action(net, &action);
        Ok(())
    }

    /// Discards staged incoming migration state for `mr` (supervisor
    /// graceful degradation on the destination side). Returns whether
    /// the ME actually discarded anything — `false` means the data was
    /// already handed to the destination library and the abort was
    /// refused to keep a later retry from double-releasing.
    ///
    /// # Errors
    ///
    /// Enclave errors propagate.
    pub fn abort_incoming(&mut self, mr: MrEnclave) -> Result<bool, SgxError> {
        let mut w = WireWriter::new();
        w.array(&mr.0);
        let out = self.enclave.ecall(me_ops::ABORT, &w.finish())?;
        let mut r = WireReader::new(&out);
        let discarded = r.u8().map_err(|_| SgxError::Decode)? == 1;
        if discarded {
            self.registry.bump_counter("host.aborts_incoming", 1);
        }
        Ok(discarded)
    }

    /// Records a channel-scoped trace edge (injected fault, supervisor
    /// backoff / abort) on the directed `source → destination` channel,
    /// and tallies it in the metrics registry. This is the hook chaos
    /// and supervision layers use to make every fault and recovery
    /// action visible in the exported trace.
    pub fn record_channel_edge(
        &mut self,
        source: MachineId,
        destination: MachineId,
        at: SimTime,
        edge: Edge,
    ) {
        let trace = Self::channel_trace(source, destination);
        self.record_edge(trace, at, edge);
        self.registry
            .bump_counter(&format!("edge.{}", edge.name()), 1);
    }

    fn on_la_start(&mut self, net: &mut Network, from: &Endpoint) {
        let mut w = WireWriter::new();
        w.bytes(&Self::token_for(from));
        match self.enclave.ecall(me_ops::LA_START, &w.finish()) {
            Ok(msg1) => net.send(&self.endpoint, from, frame(tags::LA_MSG1, &msg1)),
            Err(e) => self.fail("la start", e),
        }
    }

    fn on_la_msg2(&mut self, net: &mut Network, from: &Endpoint, msg2: &[u8]) {
        let mut w = WireWriter::new();
        w.bytes(&Self::token_for(from));
        w.bytes(msg2);
        let out = match self.enclave.ecall(me_ops::LA_MSG2, &w.finish()) {
            Ok(out) => out,
            Err(e) => return self.fail("la msg2", e),
        };
        let parsed: Result<LaMsg2Output, SgxError> = (|| {
            let mut r = WireReader::new(&out);
            let msg3 = frame(tags::LA_MSG3, r.bytes()?);
            let mr = MrEnclave(r.array()?);
            let forward = Relay::read_opt(&mut r, out.len())?;
            r.finish()?;
            Ok((msg3, mr, forward))
        })();
        match parsed {
            Ok((msg3, mr, forward)) => {
                self.app_by_mr.insert(mr, from.clone());
                self.mr_by_app.insert(from.clone(), mr);
                net.send(&self.endpoint, from, msg3);
                // Parked migration data forwarded on attestation leaves
                // in the output's own buffer.
                if let Some(relay) = forward {
                    net.send(&self.endpoint, from, relay.frame(out, tags::ME_FORWARD));
                }
            }
            Err(e) => self.fail("parse la msg2 output", e),
        }
    }

    fn on_lib_msg(&mut self, net: &mut Network, from: &Endpoint, ct: &[u8]) {
        let Some(mr) = self.mr_by_app.get(from).copied() else {
            return self.fail("lib msg", "no attested session for sender");
        };
        match self.enclave.ecall(me_ops::LIB_MSG, &ecall_input(&mr.0, ct)) {
            Ok(action) => self.handle_action(net, &action),
            Err(e) => self.fail("lib msg", e),
        }
    }

    fn on_ra_hello(&mut self, net: &mut Network, from: &Endpoint, payload: &[u8]) {
        let hello = match RaHello::from_bytes(payload) {
            Ok(h) => h,
            Err(e) => return self.fail("parse ra hello", e),
        };
        self.negotiate_begin(Self::channel_trace(from.machine, self.endpoint.machine));
        let Some(evidence) = self.ias_evidence(net, &hello.quote.to_bytes()) else {
            return;
        };
        let mut w = WireWriter::new();
        w.u64(from.machine.0);
        w.array(&hello.g_i.0);
        w.bytes(&evidence);
        match self.enclave.ecall(me_ops::RA_HELLO, &w.finish()) {
            Ok(response) => net.send(&self.endpoint, from, frame(tags::RA_RESPONSE, &response)),
            Err(e) => self.fail("ra hello", e),
        }
    }

    fn on_ra_response(&mut self, net: &mut Network, from: &Endpoint, payload: &[u8]) {
        let auth = match RaResponseAuth::from_bytes(payload) {
            Ok(a) => a,
            Err(e) => return self.fail("parse ra response", e),
        };
        let Some(evidence) = self.ias_evidence(net, &auth.response.quote.to_bytes()) else {
            return;
        };
        let mut w = WireWriter::new();
        w.u64(from.machine.0);
        w.array(&auth.response.g_r.0);
        w.bytes(&evidence);
        w.bytes(&auth.credential.to_bytes());
        w.u32(auth.batch);
        w.array(&auth.signature.0);
        let out = match self.enclave.ecall(me_ops::RA_RESPONSE, &w.finish()) {
            Ok(out) => out,
            Err(e) => return self.fail("ra response", e),
        };
        let parsed: Result<(&[u8], Vec<&[u8]>), SgxError> = (|| {
            let mut r = WireReader::new(&out);
            let finish = r.bytes()?;
            let transfers = read_list(&mut r)?;
            r.finish()?;
            Ok((finish, transfers))
        })();
        match parsed {
            Ok((finish, transfers)) => {
                // The channel is established on our side once the
                // finish message goes out.
                self.negotiate_end(Self::channel_trace(self.endpoint.machine, from.machine));
                net.send(&self.endpoint, from, frame(tags::RA_FINISH, finish));
                self.send_transfers(net, from, &transfers);
            }
            Err(e) => self.fail("parse ra response output", e),
        }
    }

    /// Sends `TRANSFER` containers to the ME at `to`, in order, noting
    /// the send time its chunk acks measure their round trip against.
    fn send_transfers(&mut self, net: &mut Network, to: &Endpoint, frames: &[impl AsRef<[u8]>]) {
        for ct in frames {
            net.send(&self.endpoint, to, frame(tags::RA_TRANSFER, ct.as_ref()));
        }
        if !frames.is_empty() {
            self.last_stream_send.insert(to.machine, self.clock.now());
        }
    }

    fn on_ra_finish(&mut self, from: &Endpoint, payload: &[u8]) {
        let mut w = WireWriter::new();
        w.u64(from.machine.0);
        w.bytes(payload);
        match self.enclave.ecall(me_ops::RA_FINISH, &w.finish()) {
            Ok(_) => self.negotiate_end(Self::channel_trace(from.machine, self.endpoint.machine)),
            Err(e) => self.fail("ra finish", e),
        }
    }

    fn on_ra_transfer(&mut self, net: &mut Network, from: &Endpoint, container: &[u8]) {
        let input = ecall_input(&from.machine.0.to_le_bytes(), container);
        let virt_before = self.enclave.peek_virtual_time();
        let out = match self.enclave.ecall(me_ops::TRANSFER, &input) {
            Ok(out) => out,
            Err(e) => return self.fail("ra transfer", e),
        };
        let release_ns = ns_u64(self.enclave.peek_virtual_time().saturating_sub(virt_before));
        let (records, rejected) = match parse_transfer_output(&out) {
            Ok(parsed) => parsed,
            Err(e) => return self.fail("parse transfer output", e),
        };
        let forwards = frame_forwards(out, &records);
        for (record, forward) in records.into_iter().zip(forwards) {
            self.apply_transfer_record(net, from, record, forward, release_ns);
        }
        if let Some(error) = rejected {
            // One error per rejected container. The rejection may have
            // quarantined an inbound stream; mirror new ledger entries
            // as edges.
            self.fail("ra transfer", error);
            self.sync_quarantine_edges();
        }
    }

    /// Applies one transfer-output record: span bookkeeping, trace
    /// edges, and routing of the framed forward (first) and ack.
    fn apply_transfer_record(
        &mut self,
        net: &mut Network,
        from: &Endpoint,
        record: TransferRecord,
        forward: Option<Vec<u8>>,
        release_ns: u64,
    ) {
        let TransferRecord {
            kind,
            mr,
            trace,
            ack,
            ..
        } = record;
        let now = self.clock.now();
        match (kind, trace) {
            // Kinds 1 (forwarded) and 2 (stored) with a trace id closed
            // a chunk stream.
            (1 | 2, Some(tid)) => self.finish_inbound(tid, now, release_ns),
            // Stream progress: the announcement carries no ack yet;
            // data chunks produce one (one combined ack per stream and
            // container).
            (3, Some(tid)) => self.track_inbound(tid, now, ack.is_some()),
            // Delta NACK: fell back to a full stream.
            (4, Some(tid)) => self.record_edge(tid, now, Edge::DeltaFallback),
            _ => {}
        }
        if let Some(forward) = forward {
            if let Some(app) = self.app_by_mr.get(&mr).cloned() {
                net.send(&self.endpoint, &app, forward);
            } else {
                self.fail("ra transfer", "forward with no app endpoint");
            }
        }
        if let Some(ack) = ack {
            net.send(&self.endpoint, from, ack);
        }
    }

    fn on_ra_ack(&mut self, net: &mut Network, from: &Endpoint, ct: &[u8]) {
        let input = ecall_input(&from.machine.0.to_le_bytes(), ct);
        let out = match self.enclave.ecall(me_ops::ACK, &input) {
            Ok(out) => out,
            Err(e) => return self.fail("ra ack", e),
        };
        let parsed: Result<AckOutput<'_>, SgxError> = (|| {
            let mut r = WireReader::new(&out);
            let kind = r.u8()?;
            let mr = MrEnclave(r.array()?);
            let trace = read_trace(&mut r)?;
            let complete = read_opt(&mut r)?;
            let frames = read_list(&mut r)?;
            r.finish()?;
            Ok((kind, mr, trace, complete, frames))
        })();
        match parsed {
            Ok((kind, mr, trace, complete, frames)) => {
                let now = self.clock.now();
                match (kind, trace) {
                    // Chunk ack: round trip since the last stream
                    // frame we sent towards that peer.
                    (3, Some(_)) => {
                        if let Some(sent) = self.last_stream_send.get(&from.machine) {
                            self.registry.observe_ns(
                                "me.chunk_rtt_ns",
                                LATENCY_BOUNDS_NS,
                                ns_u64(now.since(*sent)),
                            );
                        }
                    }
                    // Delta NACK from the destination: fall back.
                    (4, Some(tid)) => self.record_edge(tid, now, Edge::DeltaFallback),
                    _ => {}
                }
                if kind == 1 {
                    // Delivered: notify the (frozen) source app if known.
                    if let (Some(ct), Some(app)) = (complete, self.app_by_mr.get(&mr).cloned()) {
                        net.send(&self.endpoint, &app, frame(tags::ME_FORWARD, ct));
                    }
                }
                // Follow-on containers (window slide / resume) go back to
                // the destination that acked.
                self.send_transfers(net, from, &frames);
            }
            Err(e) => self.fail("parse ack output", e),
        }
    }

    /// Streaming progress of the retained outgoing migration for `mr`:
    /// `Some(progress)` when it went down the streamed path, `None`
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Enclave errors propagate.
    pub fn stream_progress(&mut self, mr: MrEnclave) -> Result<Option<StreamProgress>, SgxError> {
        let mut w = WireWriter::new();
        w.array(&mr.0);
        let out = self.enclave.ecall(me_ops::STREAM_STAT, &w.finish())?;
        let mut r = WireReader::new(&out);
        let result = match r.u8()? {
            1 => {
                let acked = r.u32()?;
                let total_chunks = r.u32()?;
                let state_len = r.u64()?;
                let payload_len = r.u64()?;
                let delta = r.u8()? != 0;
                let chunk_size = r.u32()?;
                Some(StreamProgress {
                    acked,
                    total_chunks,
                    state_len,
                    payload_len,
                    delta,
                    chunk_size,
                })
            }
            2 => {
                let _len = r.u64()?;
                None
            }
            _ => None,
        };
        Ok(result)
    }

    /// Current adaptive-controller state of the link towards
    /// `destination`: `Some((chunk_size, window))` once any stream has
    /// run there, `None` before.
    ///
    /// # Errors
    ///
    /// Enclave errors propagate.
    pub fn link_state(&mut self, destination: MachineId) -> Result<Option<(u32, u32)>, SgxError> {
        let mut w = WireWriter::new();
        w.u64(destination.0);
        let out = self.enclave.ecall(me_ops::LINK_STAT, &w.finish())?;
        let mut r = WireReader::new(&out);
        let result = match r.u8()? {
            1 => Some((r.u32()?, r.u32()?)),
            _ => None,
        };
        if let Some((chunk_size, window)) = result {
            let m = self.endpoint.machine.0;
            let d = destination.0;
            self.registry
                .set_gauge(&format!("m{m}.link.m{d}.chunk_size"), i64::from(chunk_size));
            self.registry
                .set_gauge(&format!("m{m}.link.m{d}.window"), i64::from(window));
        }
        Ok(result)
    }

    /// Per-stream state of the multiplexed link towards `destination`:
    /// one entry per announced outgoing stream (sorted by MRENCLAVE)
    /// with its per-nonce cumulative progress.
    ///
    /// # Errors
    ///
    /// Enclave errors propagate; malformed output surfaces as
    /// [`SgxError::Decode`].
    pub fn link_streams(
        &mut self,
        destination: MachineId,
    ) -> Result<Vec<LinkStreamStat>, SgxError> {
        let mut w = WireWriter::new();
        w.u64(destination.0);
        let streams = parse_link_streams(&self.enclave.ecall(me_ops::LINK_STAT, &w.finish())?)?;
        let m = self.endpoint.machine.0;
        let d = destination.0;
        for s in &streams {
            let tag = mr_tag(&s.mr_enclave);
            self.registry.set_gauge(
                &format!("m{m}.link.m{d}.stream.{tag}.acked"),
                i64::from(s.acked),
            );
            self.registry.set_gauge(
                &format!("m{m}.link.m{d}.stream.{tag}.in_flight"),
                i64::from(s.in_flight),
            );
        }
        Ok(streams)
    }
}

/// Parses the per-stream part of a `LINK_STAT` ECALL output.
fn parse_link_streams(out: &[u8]) -> Result<Vec<LinkStreamStat>, SgxError> {
    let mut r = WireReader::new(out);
    if r.u8()? == 1 {
        let _chunk_size = r.u32()?;
        let _window = r.u32()?;
    }
    let n = r.u32()? as usize;
    // Each entry takes 46 bytes: bound the reservation by the input.
    let mut streams = Vec::with_capacity(n.min(r.remaining() / 46));
    for _ in 0..n {
        streams.push(LinkStreamStat {
            mr_enclave: MrEnclave(r.array()?),
            acked: r.u32()?,
            total_chunks: r.u32()?,
            in_flight: r.u32()?,
            delta: r.u8()? != 0,
            awaiting_resume: r.u8()? != 0,
        });
    }
    r.finish()?;
    Ok(streams)
}

/// One multiplexed stream's state on a destination link (see
/// [`MeHost::link_streams`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkStreamStat {
    /// The migrating enclave the stream belongs to.
    pub mr_enclave: MrEnclave,
    /// Cumulatively acknowledged chunks.
    pub acked: u32,
    /// Total chunks of the stream.
    pub total_chunks: u32,
    /// Chunks sent but not yet acknowledged.
    pub in_flight: u32,
    /// Whether the stream ships a dirty-page delta.
    pub delta: bool,
    /// Whether a resume renegotiation is outstanding.
    pub awaiting_resume: bool,
}

/// Telemetry of one retained outgoing chunk stream (see
/// [`MeHost::stream_progress`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamProgress {
    /// Cumulatively acknowledged chunks.
    pub acked: u32,
    /// Total chunks of the stream.
    pub total_chunks: u32,
    /// Full state length in bytes.
    pub state_len: u64,
    /// Streamed payload length (equals `state_len` for a full stream;
    /// the packed dirty pages for a delta stream).
    pub payload_len: u64,
    /// Whether the stream ships a dirty-page delta.
    pub delta: bool,
    /// Chunk size the stream was announced with.
    pub chunk_size: u32,
}

impl Service for MeHost {
    fn on_message(&mut self, net: &mut Network, from: &Endpoint, payload: &[u8]) {
        let (tag, body) = match unframe(payload) {
            Ok(x) => x,
            Err(e) => return self.fail("unframe", e),
        };
        match tag {
            tags::LA_START => self.on_la_start(net, from),
            tags::LA_MSG2 => self.on_la_msg2(net, from, body),
            tags::LIB_MSG => self.on_lib_msg(net, from, body),
            tags::RA_HELLO => self.on_ra_hello(net, from, body),
            tags::RA_RESPONSE => self.on_ra_response(net, from, body),
            tags::RA_FINISH => self.on_ra_finish(from, body),
            tags::RA_TRANSFER => self.on_ra_transfer(net, from, body),
            tags::RA_ACK => self.on_ra_ack(net, from, body),
            other => self.fail("unknown tag", other),
        }
    }
}

// ---------------------------------------------------------------------
// AppHost
// ---------------------------------------------------------------------

/// Lifecycle status of an application host.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AppStatus {
    /// Enclave loaded, library initialized, ME attestation in flight.
    AttestingMe,
    /// Fully operational.
    Ready,
    /// `migration_start` issued; awaiting completion notification.
    MigratingOut,
    /// Migration confirmed complete; local enclave is frozen.
    Migrated,
    /// Awaiting incoming migration data.
    AwaitingIncoming,
    /// A host-level failure occurred (see `errors`).
    Failed,
}

/// The untrusted application process hosting one migratable enclave.
///
/// Owns the enclave handle, persists the library's sealed blob to the
/// machine's untrusted disk, and relays protocol ciphertexts between the
/// enclave and the local ME host.
pub struct AppHost {
    name: String,
    endpoint: Endpoint,
    me_endpoint: Endpoint,
    enclave: EnclaveHandle,
    disk: UntrustedDisk,
    status: AppStatus,
    /// Durable generation-numbered checkpoints of the sealed library
    /// state (periodic; see [`CHECKPOINT_INTERVAL`]).
    checkpoints: CheckpointStore,
    persists_since_checkpoint: usize,
    /// Non-fatal errors observed (visible to tests).
    pub errors: Vec<String>,
}

impl std::fmt::Debug for AppHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppHost")
            .field("name", &self.name)
            .field("endpoint", &self.endpoint)
            .field("status", &self.status)
            .finish_non_exhaustive()
    }
}

impl AppHost {
    /// Creates a host for a loaded enclave and initializes its library.
    ///
    /// `init` selects the Fig. 1 start state; the sealed state blob, when
    /// produced, is stored under `state_key` on `disk`.
    ///
    /// # Errors
    ///
    /// Propagates `MIG_INIT` failures (frozen blob, stale state, ...).
    pub fn start(
        name: &str,
        endpoint: Endpoint,
        enclave: EnclaveHandle,
        disk: UntrustedDisk,
        expected_me: MrEnclave,
        init: InitRequest,
    ) -> Result<Self, SgxError> {
        let checkpoints = CheckpointStore::new(disk.clone(), &format!("mig-state:{name}"));
        let mut host = AppHost {
            name: name.to_string(),
            endpoint,
            me_endpoint: Endpoint::new(MachineId(0), ME_SERVICE), // fixed below
            enclave,
            disk,
            status: match init {
                InitRequest::Migrate => AppStatus::AwaitingIncoming,
                _ => AppStatus::AttestingMe,
            },
            checkpoints,
            persists_since_checkpoint: 0,
            errors: Vec::new(),
        };
        host.me_endpoint = Endpoint::new(host.endpoint.machine, ME_SERVICE);
        let request = encode_init(&expected_me, &init);
        let out = host.enclave.ecall(lib_ops::MIG_INIT, &request)?;
        host.store_persist(out)?;
        Ok(host)
    }

    /// The disk key under which this app's library state blob lives.
    #[must_use]
    pub fn state_key(&self) -> String {
        format!("mig-state:{}", self.name)
    }

    /// Current status.
    #[must_use]
    pub fn status(&self) -> AppStatus {
        self.status
    }

    /// The app's network endpoint.
    #[must_use]
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    /// The enclave handle (diagnostics / direct calls in tests).
    #[must_use]
    pub fn enclave(&self) -> &EnclaveHandle {
        &self.enclave
    }

    /// The host's checkpoint series (durable sealed-state generations).
    #[must_use]
    pub fn checkpoints(&self) -> &CheckpointStore {
        &self.checkpoints
    }

    /// Stores the persist blob an ECALL envelope carries and returns the
    /// envelope's head and payload. A blob at least twice the payload's
    /// size (the state after an incoming migration or a `BULK_PUT`)
    /// keeps the ECALL's buffer and the payload is copied out: the blob
    /// moves to the buffer's front, and the buffer is cut to the blob,
    /// since the disk holds it long after the ECALL. Otherwise the blob
    /// is copied out. Copying either of two parts of a size costs the
    /// same, and an envelope whose payload is dropped whole frees its
    /// allocation whole, for the next envelope to reuse; a blob kept in
    /// half of it made glibc map fresh pages for every other `PUT` of a
    /// 64 KiB kvstore. The state key and a checkpoint generation share
    /// the blob.
    fn store_persist(&mut self, mut out: Vec<u8>) -> Result<Reply, SgxError> {
        let (payload, persist) = open_envelope(&out)?;
        let len = payload.len();
        let Some(blob) = persist else {
            return Ok(Reply { buf: out, len });
        };
        let (reply, blob) = if blob.len() / 2 >= len {
            // The blob ends the envelope.
            let at = out.len() - blob.len();
            let head = out[..ENVELOPE_HEAD + len].to_vec();
            out.drain(..at);
            out.shrink_to_fit();
            (Reply { buf: head, len }, out)
        } else {
            let blob = blob.to_vec();
            (Reply { buf: out, len }, blob)
        };
        let blob: DiskValue = Arc::new(blob);
        // A failed or torn write surfaces to the caller: the enclave
        // has already advanced, but the host must not pretend the
        // state is durable when the platter rejected it.
        self.disk
            .try_put(&self.state_key(), Arc::clone(&blob))
            .map_err(|e| SgxError::Enclave(format!("persist write: {e}")))?;
        // Periodic durable checkpoint generation (the "C" of CTR):
        // the latest-but-one generation survives even a crash
        // mid-write of the newest.
        self.persists_since_checkpoint += 1;
        if self.persists_since_checkpoint >= CHECKPOINT_INTERVAL
            || self.checkpoints.latest_generation().is_none()
        {
            self.checkpoints
                .put(blob)
                .map_err(|e| SgxError::Enclave(format!("checkpoint write: {e}")))?;
            // Only a durable generation restarts the interval: a
            // failed write is retried on the very next persist.
            self.persists_since_checkpoint = 0;
        }
        Ok(reply)
    }

    /// Kicks off local attestation with the machine's ME.
    pub fn attest_me(&mut self, net: &mut Network) {
        net.send(
            &self.endpoint,
            &self.me_endpoint,
            frame(tags::LA_START, &[]),
        );
    }

    /// Whether the attested ME session is up (status advanced past
    /// attestation).
    #[must_use]
    pub fn is_ready(&self) -> bool {
        self.status == AppStatus::Ready
    }

    /// Issues an application ECALL (opcode < `0x1000`), unwrapping the
    /// persistence envelope.
    ///
    /// # Errors
    ///
    /// Propagates enclave errors.
    pub fn call(&mut self, opcode: u32, input: &[u8]) -> Result<Vec<u8>, SgxError> {
        let (mut out, payload) = self.call_in_place(opcode, input)?;
        // Move the payload to the front of the buffer that holds it
        // instead of copying it into a fresh one.
        out.truncate(payload.end);
        out.drain(..payload.start);
        out.shrink_to_fit();
        Ok(out)
    }

    /// [`AppHost::call`] that leaves the payload where it lies: returns
    /// the buffer holding it and its range there, so a caller that keeps
    /// only part of the payload moves that part once.
    pub(crate) fn call_in_place(
        &mut self,
        opcode: u32,
        input: &[u8],
    ) -> Result<(Vec<u8>, Range<usize>), SgxError> {
        let out = self.enclave.ecall(opcode, input)?;
        let reply = self.store_persist(out)?;
        Ok((reply.buf, ENVELOPE_HEAD..ENVELOPE_HEAD + reply.len))
    }

    /// Starts a migration to `destination` (`migration_start`,
    /// Listing 1).
    ///
    /// # Errors
    ///
    /// [`SgxError::Enclave`] host-state error if not ready; enclave
    /// errors propagate.
    pub fn migrate_to(
        &mut self,
        net: &mut Network,
        destination: MachineId,
    ) -> Result<(), SgxError> {
        if self.status != AppStatus::Ready {
            return Err(SgxError::Enclave("app host not ready to migrate".into()));
        }
        let mut w = WireWriter::new();
        w.u64(destination.0);
        let out = self.enclave.ecall(lib_ops::MIG_START, &w.finish())?;
        // The frozen state blob must hit the disk before the request is
        // relayed (crash consistency; §V-C ordering).
        let reply = self.store_persist(out)?;
        // The request's ciphertext is the envelope's payload, which leads
        // the reply in a frame's shape: it leaves in the reply's buffer.
        let request = Relay {
            at: 0,
            len: reply.len,
        }
        .frame(reply.buf, tags::LIB_MSG);
        net.send(&self.endpoint, &self.me_endpoint, request);
        self.status = AppStatus::MigratingOut;
        Ok(())
    }

    fn fail(&mut self, context: &str, err: impl std::fmt::Display) {
        self.errors.push(format!("{context}: {err}"));
        self.status = AppStatus::Failed;
    }

    fn on_me_forward(&mut self, net: &mut Network, ct: &[u8]) {
        let out = match self.enclave.ecall(lib_ops::ME_CT, ct) {
            Ok(out) => out,
            Err(e) => return self.fail("me forward", e),
        };
        let reply = match self.store_persist(out) {
            Ok(reply) => reply,
            Err(e) => return self.fail("me forward persist", e),
        };
        let reply: Result<Option<&[u8]>, SgxError> = (|| {
            let mut r = WireReader::new(reply.payload());
            let reply = read_opt(&mut r)?;
            r.finish()?;
            Ok(reply)
        })();
        match reply {
            Ok(Some(done_ct)) => {
                // Incoming migration installed: confirm with DONE.
                net.send(
                    &self.endpoint,
                    &self.me_endpoint,
                    frame(tags::LIB_MSG, done_ct),
                );
                self.status = AppStatus::Ready;
            }
            Ok(None) => {
                // MigrationComplete notification on the source side.
                if self.status == AppStatus::MigratingOut {
                    self.status = AppStatus::Migrated;
                }
            }
            Err(e) => self.fail("parse me forward reply", e),
        }
    }
}

impl Service for AppHost {
    fn on_message(&mut self, net: &mut Network, _from: &Endpoint, payload: &[u8]) {
        let (tag, body) = match unframe(payload) {
            Ok(x) => x,
            Err(e) => return self.fail("unframe", e),
        };
        match tag {
            tags::LA_MSG1 => match self.enclave.ecall(lib_ops::ME_MSG1, body) {
                Ok(out) => match self.store_persist(out) {
                    Ok(reply) => net.send(
                        &self.endpoint,
                        &self.me_endpoint,
                        frame(tags::LA_MSG2, reply.payload()),
                    ),
                    Err(e) => self.fail("la msg1 persist", e),
                },
                Err(e) => self.fail("la msg1", e),
            },
            tags::LA_MSG3 => match self.enclave.ecall(lib_ops::ME_MSG3, body) {
                Ok(out) => {
                    if let Err(e) = self.store_persist(out) {
                        return self.fail("la msg3 persist", e);
                    }
                    if self.status == AppStatus::AttestingMe {
                        self.status = AppStatus::Ready;
                    }
                }
                Err(e) => self.fail("la msg3", e),
            },
            tags::ME_FORWARD => self.on_me_forward(net, body),
            other => self.fail("unexpected tag", other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::me::write_opt;

    #[test]
    fn frames_round_trip() {
        let framed = frame(tags::LIB_MSG, b"ciphertext");
        let (tag, body) = unframe(&framed).unwrap();
        assert_eq!(tag, tags::LIB_MSG);
        assert_eq!(body, b"ciphertext");
        assert!(unframe(&framed[..2]).is_err());
    }

    /// A `TRANSFER` output record as the ME writes it.
    fn record(kind: u8, forward: Option<&[u8]>, ack: Option<&[u8]>) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u8(kind).array(&[kind; 32]);
        write_opt(&mut w, Some(&[kind; 8]));
        write_opt(&mut w, forward);
        write_opt(&mut w, ack);
        w.finish()
    }

    #[test]
    fn relayed_frames_equal_copied_frames() {
        // LIB_MSG: the request's ciphertext leads a MIG_START envelope.
        let ct = b"sealed migration request".as_slice();
        let mut w = WireWriter::new();
        w.u8(0).bytes(ct);
        write_opt(&mut w, Some(b"frozen blob"));
        let envelope = w.finish();
        let (payload, _) = open_envelope(&envelope).unwrap();
        let relay = Relay {
            at: 0,
            len: payload.len(),
        };
        assert_eq!(
            relay.frame(envelope, tags::LIB_MSG),
            frame(tags::LIB_MSG, ct)
        );

        // ME_FORWARD: a container that released two streams, with a
        // progress record between them.
        let (first, second) = (
            b"first forward".as_slice(),
            b"second, longer forward".as_slice(),
        );
        let mut w = WireWriter::new();
        w.u32(3);
        w.bytes(&record(1, Some(first), Some(b"ack 1")));
        w.bytes(&record(3, None, Some(b"ack 3")));
        w.bytes(&record(1, Some(second), None));
        write_opt(&mut w, None);
        let out = w.finish();
        let (records, rejected) = parse_transfer_output(&out).unwrap();
        assert!(rejected.is_none());
        let acks: Vec<_> = records.iter().map(|r| r.ack.clone()).collect();
        assert_eq!(
            acks,
            [
                Some(frame(tags::RA_ACK, b"ack 1")),
                Some(frame(tags::RA_ACK, b"ack 3")),
                None
            ]
        );
        assert_eq!(records[1].trace, Some([3; 8]));
        assert_eq!(
            frame_forwards(out, &records),
            [
                Some(frame(tags::ME_FORWARD, first)),
                None,
                Some(frame(tags::ME_FORWARD, second))
            ]
        );
    }

    #[test]
    fn link_stat_decode_bounds_the_stream_count_by_the_input() {
        // A LINK_STAT output claiming u32::MAX streams must fail to
        // decode, not reserve memory for them.
        let mut out = vec![0];
        out.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(parse_link_streams(&out), Err(SgxError::Decode)));
        let mut one = vec![1];
        one.extend_from_slice(&[0; 8]);
        one.extend_from_slice(&1u32.to_le_bytes());
        one.extend_from_slice(&[7; 32]);
        one.extend_from_slice(&[0; 14]);
        assert_eq!(parse_link_streams(&one).unwrap().len(), 1);
    }

    #[test]
    fn write_read_opt_round_trip() {
        let mut w = WireWriter::new();
        write_opt(&mut w, Some(b"x"));
        write_opt(&mut w, None);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(read_opt(&mut r).unwrap().unwrap(), b"x");
        assert!(read_opt(&mut r).unwrap().is_none());
        r.finish().unwrap();
    }
}
