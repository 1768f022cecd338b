//! Measurement from outside the program, through its public seams.
//!
//! - [`Counts`]: messages and bytes seen by a pass-through
//!   `NetworkTap`, and durable writes seen by a pass-through
//!   `UntrustedDisk` fault hook (every durable write goes through
//!   `try_put`). Installed in every run: the byte ratios are end-to-end
//!   metrics.
//! - [`Tracer`]: spans at each layer boundary, kept in memory and
//!   written out once at the end. The benchmark opens spans around its
//!   direct calls; [`Timed`] wraps each `MeHost` and `AppHost`
//!   (`Service::on_message`) and opens one span per delivered message,
//!   named by wire tag and side. Installed only in traced phases.

use cloud_sim::disk::WriteFault;
use cloud_sim::network::{Envelope, TapAction};
use cloud_sim::world::Service;
use mig_core::host::tags;
use parking_lot::Mutex;
use sgx_sim::machine::MachineId;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Message and durable-write counts at the network and disk boundaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Messages between services on one machine (app ↔ ME relay).
    pub local_msgs: u64,
    /// Bytes of those messages.
    pub local_bytes: u64,
    /// Messages between machines (ME ↔ ME).
    pub remote_msgs: u64,
    /// Bytes of those messages.
    pub remote_bytes: u64,
    /// Durable writes (`try_put` calls).
    pub disk_writes: u64,
    /// Bytes written to app state blobs (`mig-state:<name>`).
    pub app_state_bytes: u64,
    /// Bytes written to app checkpoint series (`mig-state:<name>/…`).
    pub app_ckpt_bytes: u64,
    /// Bytes written to ME checkpoint series (`me-state…`).
    pub me_ckpt_bytes: u64,
}

impl Counts {
    /// Bytes written to the untrusted disks, all classes.
    #[must_use]
    pub fn disk_bytes(&self) -> u64 {
        self.app_state_bytes + self.app_ckpt_bytes + self.me_ckpt_bytes
    }

    /// The counts accumulated since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            local_msgs: self.local_msgs - earlier.local_msgs,
            local_bytes: self.local_bytes - earlier.local_bytes,
            remote_msgs: self.remote_msgs - earlier.remote_msgs,
            remote_bytes: self.remote_bytes - earlier.remote_bytes,
            disk_writes: self.disk_writes - earlier.disk_writes,
            app_state_bytes: self.app_state_bytes - earlier.app_state_bytes,
            app_ckpt_bytes: self.app_ckpt_bytes - earlier.app_ckpt_bytes,
            me_ckpt_bytes: self.me_ckpt_bytes - earlier.me_ckpt_bytes,
        }
    }

    fn on_delivery(&mut self, envelope: &Envelope) {
        let len = envelope.payload.len() as u64;
        if envelope.from.machine == envelope.to.machine {
            self.local_msgs += 1;
            self.local_bytes += len;
        } else {
            self.remote_msgs += 1;
            self.remote_bytes += len;
        }
    }

    fn on_write(&mut self, key: &str, len: usize) {
        let len = len as u64;
        self.disk_writes += 1;
        if key.starts_with("me-state") {
            self.me_ckpt_bytes += len;
        } else if key.contains('/') {
            self.app_ckpt_bytes += len;
        } else {
            self.app_state_bytes += len;
        }
    }
}

/// A pass-through network tap: counts every delivery and, when tracing,
/// closes the pending `library.start` span at the first delivery.
pub fn network_tap(
    counts: Arc<Mutex<Counts>>,
    tracer: Option<Arc<Mutex<Tracer>>>,
) -> impl FnMut(&Envelope) -> TapAction + Send + 'static {
    move |envelope: &Envelope| {
        counts.lock().on_delivery(envelope);
        if let Some(tracer) = &tracer {
            tracer.lock().on_delivery();
        }
        TapAction::Deliver
    }
}

/// A pass-through disk fault hook that counts every durable write.
pub fn disk_hook(counts: Arc<Mutex<Counts>>) -> impl FnMut(&str, &[u8]) -> WriteFault + Send {
    move |key: &str, value: &[u8]| {
        counts.lock().on_write(key, value.len());
        WriteFault::None
    }
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary, e.g. `datacenter.migrate` or `me.dst.stream`.
    pub name: &'static str,
    /// The op the span belongs to (spans of one op share it).
    pub op: u32,
    /// Index of the enclosing span, `None` for an op's root.
    pub parent: Option<u32>,
    /// Start, since the tracer's epoch.
    pub start: Duration,
    /// End, since the tracer's epoch.
    pub end: Duration,
    /// Bytes of the message that opened a service span (0 otherwise).
    pub bytes_in: u64,
}

impl Span {
    /// The span's wall-clock duration.
    #[must_use]
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Which end of the current handoff a machine is on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Side {
    Src,
    Dst,
}

/// In-memory span recorder. Single client thread: spans nest strictly,
/// so an open-span stack gives every span its parent.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    /// Whether an op is open; spans are recorded only inside ops, so
    /// set-up work (warm-up handoffs included) leaves no spans.
    op_open: bool,
    /// `(source, destination)` machines of the open op.
    roles: Option<(MachineId, MachineId)>,
    /// `library.start` is open until the first network delivery.
    start_pending: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            op_open: false,
            roles: None,
            start_pending: false,
        }
    }
}

impl Tracer {
    /// Opens an op's root span; `roles` names its source and destination
    /// machines for the service spans.
    pub fn begin_op(&mut self, op: u32, roles: Option<(MachineId, MachineId)>) {
        assert!(!self.op_open, "ops do not nest");
        self.op = op;
        self.op_open = true;
        self.roles = roles;
        self.begin("op", 0);
    }

    /// Closes the op's root span.
    pub fn end_op(&mut self) {
        // A failed op can leave inner spans open; close them with it.
        while !self.open.is_empty() {
            self.end();
        }
        self.start_pending = false;
        self.op_open = false;
        self.roles = None;
    }

    /// Opens a child of the innermost open span (inside an op only).
    pub fn begin(&mut self, name: &'static str, bytes_in: u64) {
        if !self.op_open {
            return;
        }
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start: now,
            end: now,
            bytes_in,
        });
        self.open.push((self.spans.len() - 1) as u32);
    }

    /// Closes the innermost open span (a no-op outside ops).
    pub fn end(&mut self) {
        if let Some(idx) = self.open.pop() {
            self.spans[idx as usize].end = self.epoch.elapsed();
        }
    }

    /// Opens `datacenter.migrate` and, inside it, `library.start`: the
    /// part of `migrate_app` before the first delivery, which is
    /// `AppHost::migrate_to` (the `MIG_START` ECALL and the frozen
    /// state's disk write).
    pub fn begin_migrate(&mut self) {
        if !self.op_open {
            return;
        }
        self.begin("datacenter.migrate", 0);
        self.begin("library.start", 0);
        self.start_pending = true;
    }

    /// Closes `datacenter.migrate` (and `library.start`, had nothing
    /// been delivered).
    pub fn end_migrate(&mut self) {
        self.on_delivery();
        self.end();
    }

    fn on_delivery(&mut self) {
        if self.start_pending {
            self.start_pending = false;
            self.end();
        }
    }

    fn side(&self, machine: MachineId) -> Side {
        match self.roles {
            Some((_, dst)) if dst == machine => Side::Dst,
            _ => Side::Src,
        }
    }

    /// Takes the recorded spans out of the tracer.
    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// The service a [`Timed`] wrapper sits in front of.
#[derive(Clone, Copy, Debug)]
pub enum Role {
    /// A machine's Migration Enclave host.
    Me,
    /// An application enclave's host.
    App,
}

/// Span name for a message with wire `tag` delivered to a `role`
/// service on the `side` of the current handoff.
fn service_span(role: Role, side: Side, tag: u8) -> &'static str {
    match (role, side, tag) {
        (Role::Me, _, tags::LA_START | tags::LA_MSG2 | tags::RA_HELLO | tags::RA_FINISH) => {
            "me.attest"
        }
        (Role::Me, Side::Src, tags::LIB_MSG) => "me.src.payload",
        (Role::Me, Side::Dst, tags::LIB_MSG) => "me.dst.payload",
        (Role::Me, Side::Src, _) => "me.src.stream",
        (Role::Me, Side::Dst, _) => "me.dst.stream",
        (Role::App, Side::Dst, tags::ME_FORWARD) => "library.install",
        (Role::App, Side::Src, tags::ME_FORWARD) => "library.complete",
        (Role::App, _, _) => "library.attest",
    }
}

/// A timing wrapper registered in place of a host service: one span per
/// delivered message around the host's own `on_message` (host relay
/// plus the enclave ECALLs it makes).
pub struct Timed<S: ?Sized> {
    inner: Arc<Mutex<S>>,
    machine: MachineId,
    role: Role,
    tracer: Arc<Mutex<Tracer>>,
}

impl<S: ?Sized> Timed<S> {
    /// Wraps `inner`, which runs on `machine`.
    pub fn new(
        inner: Arc<Mutex<S>>,
        machine: MachineId,
        role: Role,
        tracer: Arc<Mutex<Tracer>>,
    ) -> Self {
        Timed {
            inner,
            machine,
            role,
            tracer,
        }
    }
}

impl<S: Service + ?Sized> Service for Timed<S> {
    fn on_message(
        &mut self,
        net: &mut cloud_sim::network::Network,
        from: &cloud_sim::network::Endpoint,
        payload: &[u8],
    ) {
        // Host frames start with their one-byte wire tag.
        let tag = payload.first().copied().unwrap_or(0);
        let traced = {
            let mut tracer = self.tracer.lock();
            let traced = tracer.op_open;
            if traced {
                let name = service_span(self.role, tracer.side(self.machine), tag);
                tracer.begin(name, payload.len() as u64);
            }
            traced
        };
        self.inner.lock().on_message(net, from, payload);
        if traced {
            self.tracer.lock().end();
        }
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    /// Σ duration minus the time child spans cover.
    pub self_time: Duration,
    /// Σ duration.
    pub total: Duration,
    /// Number of spans.
    pub calls: u64,
    /// Σ bytes of the messages that opened them.
    pub bytes_in: u64,
}

/// Sums self time, total time, calls and bytes per span name. A span's
/// self time is its duration minus the time its children cover; the
/// children of one span never overlap (one client thread), so that is
/// the sum of their durations.
#[must_use]
pub fn span_totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut covered = vec![Duration::ZERO; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent as usize] += span.duration();
        }
    }
    let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(covered) {
        let t = totals.entry(span.name).or_default();
        t.self_time += span.duration().saturating_sub(covered);
        t.total += span.duration();
        t.calls += 1;
        t.bytes_in += span.bytes_in;
    }
    totals
}

/// Serializes spans as a JSON array (times in microseconds since the
/// tracer's epoch).
#[must_use]
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3},\"bytes_in\":{}}}",
            s.name,
            s.op,
            s.start.as_secs_f64() * 1e6,
            s.end.as_secs_f64() * 1e6,
            s.bytes_in,
        ));
    }
    out.push_str("]\n");
    out
}
