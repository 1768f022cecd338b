//! The datacenter network: endpoints, timed delivery, and adversary hooks.
//!
//! Per the SGX threat model (paper §III-A), every channel between machines
//! — and even between VMs on one machine — is adversary-controlled. The
//! network therefore exposes *taps*: interception points that can record,
//! drop, or rewrite messages, used by the attack test-suite. Delivery
//! times follow a latency + bandwidth link model so the end-to-end
//! migration experiment can compare against VM-migration transfer times.
//! Each directed machine pair is one FIFO link: a message starts
//! serializing only after the previous one on that link has left, so
//! concurrent messages share its bandwidth and arrive in send order
//! (taps may still delay, reorder or replay them).

use crate::clock::{SimClock, SimTime};
use sgx_sim::machine::MachineId;
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap};
use std::time::Duration;

/// A network-addressable service instance.
///
/// Services are named (`"me"` for the Migration Enclave host in the
/// management VM, `"app:<name>"` for application hosts, etc.).
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Endpoint {
    /// Hosting machine.
    pub machine: MachineId,
    /// Service name on that machine.
    pub service: String,
}

impl Endpoint {
    /// Convenience constructor.
    #[must_use]
    pub fn new(machine: MachineId, service: &str) -> Self {
        Endpoint {
            machine,
            service: service.to_string(),
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.machine, self.service)
    }
}

/// A message in flight.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Sender endpoint.
    pub from: Endpoint,
    /// Destination endpoint.
    pub to: Endpoint,
    /// Opaque payload (protocol bytes).
    pub payload: Vec<u8>,
    /// Scheduled delivery time.
    pub deliver_at: SimTime,
    /// Tie-breaking sequence number (send order).
    pub seq: u64,
}

impl PartialOrd for Envelope {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl Ord for Envelope {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // BinaryHeap is a max-heap; invert so the earliest message pops
        // first, with the send sequence as a deterministic tie-breaker.
        (other.deliver_at, other.seq).cmp(&(self.deliver_at, self.seq))
    }
}

/// Latency/bandwidth profile of a link.
#[derive(Clone, Copy, Debug)]
pub struct LinkProfile {
    /// One-way propagation latency.
    pub latency: Duration,
    /// Sustained throughput in bytes per second.
    pub bandwidth_bytes_per_sec: u64,
}

impl LinkProfile {
    /// A typical intra-datacenter link: 100 µs latency, 10 Gbit/s.
    #[must_use]
    pub fn datacenter() -> Self {
        LinkProfile {
            latency: Duration::from_micros(100),
            bandwidth_bytes_per_sec: 10_000_000_000 / 8,
        }
    }

    /// Same-machine (VM-to-VM / proxy) link: 10 µs, memory-speed.
    #[must_use]
    pub fn local() -> Self {
        LinkProfile {
            latency: Duration::from_micros(10),
            bandwidth_bytes_per_sec: 10_000_000_000,
        }
    }

    /// Time to put `bytes` on the wire at this link's bandwidth.
    #[must_use]
    pub fn serialization_time(&self, bytes: usize) -> Duration {
        Duration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec as f64)
    }

    /// Transfer time for a message of `bytes` over an idle link.
    #[must_use]
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        self.latency + self.serialization_time(bytes)
    }
}

/// What a network tap decides to do with a message.
#[derive(Debug)]
pub enum TapAction {
    /// Deliver unchanged.
    Deliver,
    /// Silently drop.
    Drop,
    /// Deliver a replacement payload instead.
    Replace(Vec<u8>),
    /// Hold the message back and re-deliver it `Duration` later (link
    /// jitter / transient congestion). The delayed copy passes the taps
    /// again on its new delivery time.
    Delay(Duration),
}

/// An adversary interception point. Taps see every message at delivery.
pub trait NetworkTap: Send {
    /// Inspects (and may act on) a message about to be delivered.
    fn intercept(&mut self, envelope: &Envelope) -> TapAction;
}

impl<F> NetworkTap for F
where
    F: FnMut(&Envelope) -> TapAction + Send,
{
    fn intercept(&mut self, envelope: &Envelope) -> TapAction {
        self(envelope)
    }
}

/// The datacenter network fabric.
///
/// Owns the delivery queue and the virtual clock; services send through
/// the `&mut Network` they receive as their context.
pub struct Network {
    clock: SimClock,
    queue: BinaryHeap<Envelope>,
    default_link: LinkProfile,
    local_link: LinkProfile,
    /// When each directed `(from, to)` machine link finishes serializing
    /// the last message queued on it.
    busy_until: HashMap<(MachineId, MachineId), SimTime>,
    seq: u64,
    taps: Vec<Box<dyn NetworkTap>>,
    recording: bool,
    log: Vec<Envelope>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("queued", &self.queue.len())
            .field("now", &self.clock.now())
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Creates a network with datacenter-class links on `clock`.
    #[must_use]
    pub fn new(clock: SimClock) -> Self {
        Network {
            clock,
            queue: BinaryHeap::new(),
            default_link: LinkProfile::datacenter(),
            local_link: LinkProfile::local(),
            busy_until: HashMap::new(),
            seq: 0,
            taps: Vec::new(),
            recording: false,
            log: Vec::new(),
        }
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The cross-machine link profile.
    #[must_use]
    pub fn link(&self) -> LinkProfile {
        self.default_link
    }

    /// Replaces the cross-machine link profile.
    pub fn set_link(&mut self, link: LinkProfile) {
        self.default_link = link;
    }

    /// Sends `payload` from `from` to `to`, scheduling timed delivery:
    /// the message starts serializing once the link from `from`'s
    /// machine to `to`'s is free and arrives one latency after its last
    /// byte leaves.
    pub fn send(&mut self, from: &Endpoint, to: &Endpoint, payload: Vec<u8>) {
        let link = if from.machine == to.machine {
            self.local_link
        } else {
            self.default_link
        };
        let busy = self
            .busy_until
            .entry((from.machine, to.machine))
            .or_insert(SimTime::ZERO);
        let start = (*busy).max(self.clock.now());
        *busy = start.after(link.serialization_time(payload.len()));
        let deliver_at = busy.after(link.latency);
        self.push(Envelope {
            from: from.clone(),
            to: to.clone(),
            payload,
            deliver_at,
            seq: 0, // assigned by push
        });
    }

    /// Re-injects a previously captured envelope (adversary replay). The
    /// message is delivered "now" regardless of its original timestamp.
    pub fn inject(&mut self, mut envelope: Envelope) {
        envelope.deliver_at = self.clock.now().after(Duration::from_micros(1));
        self.push(envelope);
    }

    fn push(&mut self, mut envelope: Envelope) {
        envelope.seq = self.seq;
        self.seq += 1;
        self.queue.push(envelope);
    }

    /// Installs an adversary tap (applied to every subsequent delivery).
    pub fn add_tap(&mut self, tap: Box<dyn NetworkTap>) {
        self.taps.push(tap);
    }

    /// Starts recording delivered messages into the log.
    pub fn start_recording(&mut self) {
        self.recording = true;
    }

    /// Stops recording and returns the captured messages.
    pub fn stop_recording(&mut self) -> Vec<Envelope> {
        self.recording = false;
        std::mem::take(&mut self.log)
    }

    /// Number of undelivered messages.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Advances the clock by `d` — models host-side processing or calls
    /// to external services outside the message fabric (e.g. the Intel
    /// Attestation Service HTTPS round trip).
    pub fn consume(&mut self, d: Duration) {
        self.clock.advance(d);
    }

    /// Pops the next message, advancing the clock to its delivery time
    /// and running it through the taps.
    ///
    /// Returns `None` when the queue is empty or the message was dropped
    /// by a tap (the clock still advances in the latter case).
    pub(crate) fn deliver_next(&mut self) -> Option<Envelope> {
        let mut envelope = self.queue.pop()?;
        self.clock.advance_to(envelope.deliver_at);
        for tap in &mut self.taps {
            match tap.intercept(&envelope) {
                TapAction::Deliver => {}
                TapAction::Drop => return None,
                TapAction::Replace(payload) => envelope.payload = payload,
                TapAction::Delay(by) => {
                    envelope.deliver_at = envelope.deliver_at.after(by);
                    self.push(envelope);
                    return None;
                }
            }
        }
        if self.recording {
            self.log.push(envelope.clone());
        }
        Some(envelope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(machine: u64, service: &str) -> Endpoint {
        Endpoint::new(MachineId(machine), service)
    }

    #[test]
    fn messages_deliver_in_time_order() {
        let clock = SimClock::new();
        let mut net = Network::new(clock);
        // Big cross-machine message (slow), then small local one (fast).
        net.send(&ep(1, "a"), &ep(2, "b"), vec![0; 1_000_000]);
        net.send(&ep(1, "a"), &ep(1, "c"), vec![0; 10]);
        let first = net.deliver_next().unwrap();
        assert_eq!(first.to, ep(1, "c"), "local small message arrives first");
        let second = net.deliver_next().unwrap();
        assert_eq!(second.to, ep(2, "b"));
        assert!(net.deliver_next().is_none());
    }

    #[test]
    fn link_is_fifo_small_message_waits_for_large_one() {
        let mut net = Network::new(SimClock::new());
        net.send(&ep(1, "a"), &ep(2, "b"), vec![0; 1_000_000]);
        net.send(&ep(1, "a"), &ep(2, "b"), vec![0; 10]);
        assert_eq!(net.deliver_next().unwrap().payload.len(), 1_000_000);
        assert_eq!(net.deliver_next().unwrap().payload.len(), 10);
    }

    #[test]
    fn back_to_back_messages_share_link_bandwidth() {
        let mut net = Network::new(SimClock::new());
        let (k, n) = (4u32, 1_250_000usize); // 1 ms each at 10 Gbit/s
        for _ in 0..k {
            net.send(&ep(1, "a"), &ep(2, "b"), vec![0; n]);
        }
        net.send(&ep(3, "a"), &ep(2, "b"), vec![0; n]);
        let link = net.link();
        let arrivals: Vec<Envelope> = std::iter::from_fn(|| net.deliver_next()).collect();
        let at = |e: &Envelope| e.deliver_at.since(SimTime::ZERO);
        let last = arrivals.iter().rfind(|e| e.from.machine == MachineId(1));
        let other = arrivals.iter().find(|e| e.from.machine == MachineId(3));
        let link_floor = link.latency + link.serialization_time(n) * k;
        assert_eq!(at(last.unwrap()), link_floor);
        assert_eq!(at(other.unwrap()), link.transfer_time(n), "not delayed");
    }

    #[test]
    fn clock_advances_to_delivery_time() {
        let clock = SimClock::new();
        let mut net = Network::new(clock.clone());
        net.send(&ep(1, "a"), &ep(2, "b"), vec![0; 125_000_000]); // 0.1s at 10Gbps
        net.deliver_next().unwrap();
        let now = clock.now();
        assert!(now.since(SimTime::ZERO) >= Duration::from_millis(100));
    }

    #[test]
    fn same_send_time_preserves_send_order() {
        let clock = SimClock::new();
        let mut net = Network::new(clock);
        net.send(&ep(1, "a"), &ep(1, "x"), b"first".to_vec());
        net.send(&ep(1, "a"), &ep(1, "x"), b"secnd".to_vec());
        assert_eq!(net.deliver_next().unwrap().payload, b"first");
        assert_eq!(net.deliver_next().unwrap().payload, b"secnd");
    }

    #[test]
    fn tap_can_drop_messages() {
        let mut net = Network::new(SimClock::new());
        net.add_tap(Box::new(|e: &Envelope| {
            if e.to.service == "victim" {
                TapAction::Drop
            } else {
                TapAction::Deliver
            }
        }));
        net.send(&ep(1, "a"), &ep(2, "victim"), b"x".to_vec());
        net.send(&ep(1, "a"), &ep(2, "ok"), b"y".to_vec());
        // Dropped message yields None; the next call returns the survivor.
        let deliveries: Vec<_> = std::iter::from_fn(|| {
            if net.pending() == 0 {
                None
            } else {
                Some(net.deliver_next())
            }
        })
        .flatten()
        .collect();
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].to.service, "ok");
    }

    #[test]
    fn tap_can_rewrite_payloads() {
        let mut net = Network::new(SimClock::new());
        net.add_tap(Box::new(|_: &Envelope| {
            TapAction::Replace(b"evil".to_vec())
        }));
        net.send(&ep(1, "a"), &ep(2, "b"), b"good".to_vec());
        assert_eq!(net.deliver_next().unwrap().payload, b"evil");
    }

    #[test]
    fn tap_can_delay_messages() {
        let mut net = Network::new(SimClock::new());
        // Delay each message exactly once: the re-queued copy passes the
        // tap again, so a one-shot flag keeps this terminating.
        let mut delayed = false;
        net.add_tap(Box::new(move |_: &Envelope| {
            if delayed {
                TapAction::Deliver
            } else {
                delayed = true;
                TapAction::Delay(Duration::from_millis(5))
            }
        }));
        net.send(&ep(1, "a"), &ep(2, "b"), b"late".to_vec());
        let original_arrival = net
            .link()
            .transfer_time(4)
            .as_nanos()
            .try_into()
            .unwrap_or(u64::MAX);
        assert!(net.deliver_next().is_none(), "held back on first pass");
        assert_eq!(net.pending(), 1, "the delayed copy is re-queued");
        let envelope = net.deliver_next().unwrap();
        assert_eq!(envelope.payload, b"late");
        assert_eq!(
            envelope.deliver_at.0,
            original_arrival + 5_000_000,
            "re-delivered exactly the delay later"
        );
        assert_eq!(net.now(), envelope.deliver_at);
    }

    #[test]
    fn recording_and_replay() {
        let mut net = Network::new(SimClock::new());
        net.start_recording();
        net.send(&ep(1, "a"), &ep(2, "b"), b"capture me".to_vec());
        let delivered = net.deliver_next().unwrap();
        let log = net.stop_recording();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0], delivered);

        // Replay later.
        net.inject(log[0].clone());
        let replayed = net.deliver_next().unwrap();
        assert_eq!(replayed.payload, b"capture me");
    }

    #[test]
    fn link_transfer_time_model() {
        let link = LinkProfile::datacenter();
        // 1 GiB at 10 Gbit/s ≈ 0.86 s.
        let t = link.transfer_time(1 << 30);
        assert!(t > Duration::from_millis(800) && t < Duration::from_millis(900));
        // Latency floor for empty messages.
        assert_eq!(link.transfer_time(0), Duration::from_micros(100));
    }
}
