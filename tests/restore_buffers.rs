//! How many bytes staging, restoring and updating a kvstore allocates.
//!
//! A 16 MiB kvstore is staged with `BULK_PUT`, moved to a second machine
//! (`migrate_app`), restored there (`app_bulk_state` + `LOAD`) and
//! updated by one `PUT`. This binary's global allocator sums the bytes of
//! every allocation made in three windows, as multiples of the state:
//!
//! * the staging `BULK_PUT`: the snapshot (which is the store), the
//!   segment-sealed container the library stages, and the ECALL envelope
//!   carrying its pages to the host;
//! * `app_bulk_state` + `LOAD`: the `BULK_STATE` output and the snapshot
//!   plaintext each segment opens into, which the store keeps;
//! * a same-length 4 KiB `PUT`: the segments it reseals and the sealed
//!   index, written over the staged container where they lie, and the
//!   envelope carrying their pages; nothing of the store's size.
//!
//! No window copies a segment into a buffer of its own or hashes one
//! (README, "State buffers"). The file holds this one test, so nothing
//! else allocates during the counted windows.

use cloud_sim::machine::MachineLabels;
use mig_apps::kvstore::{self, ops as kv, KvStore};
use mig_core::datacenter::Datacenter;
use mig_core::library::InitRequest;
use mig_core::policy::MigrationPolicy;
use sgx_sim::measurement::{EnclaveImage, EnclaveSigner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};

/// The system allocator, summing the bytes of fresh blocks and of the
/// growth of grown blocks while [`COUNTING`] is set.
struct Counting;

/// Whether allocations are counted now.
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Bytes allocated while counting.
static BYTES: AtomicUsize = AtomicUsize::new(0);
/// Allocations made while counting.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

fn note(bytes: usize) {
    if COUNTING.load(Relaxed) {
        BYTES.fetch_add(bytes, Relaxed);
        ALLOCATIONS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the memory it hands out is exactly what `System` guarantees; counting
// only updates atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`, as the
        // caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            note(new_size - layout.size());
        }
        // SAFETY: `ptr` and `layout` come from `System`, and the caller
        // upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Entries and value size of the store: 16 MiB of values.
const ENTRIES: u32 = 4096;
const VALUE_LEN: u32 = 4096;
/// Most bytes the staging `BULK_PUT` may allocate, per state byte
/// (3.16 today: snapshot, container and envelope, about one state each).
const MAX_STAGE_BYTES_PER_STATE_BYTE: f64 = 3.25;
/// Most bytes `app_bulk_state` + `LOAD` may allocate, per state byte
/// (2.06 today: `BULK_STATE` output and snapshot).
const MAX_RESTORE_BYTES_PER_STATE_BYTE: f64 = 2.25;
/// Most bytes a same-length 4 KiB `PUT` into the restored store may
/// allocate, per state byte (0.021 today: the index, the resealed
/// segments and the envelope).
const MAX_PUT_BYTES_PER_STATE_BYTE: f64 = 1.0 / 32.0;

/// Runs `f` with the allocator counting; returns its result, the bytes
/// allocated and the number of allocations.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    BYTES.store(0, Relaxed);
    ALLOCATIONS.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    (out, BYTES.load(Relaxed), ALLOCATIONS.load(Relaxed))
}

#[test]
fn staging_and_restoring_allocate_a_bounded_multiple_of_the_state() {
    let mut dc = Datacenter::new(20);
    let policy = MigrationPolicy::same_operator_only();
    let src = dc.add_machine(MachineLabels::new("dc-1", "eu"), &policy);
    let dst = dc.add_machine(MachineLabels::new("dc-1", "eu"), &policy);
    let image = EnclaveImage::build(
        "restore-buffers-kv",
        1,
        b"kvstore",
        &EnclaveSigner::from_seed([20; 32]),
    );
    dc.deploy_app("src", src, &image, KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("src", kv::INIT, &[]).unwrap();
    let state_len = (ENTRIES * VALUE_LEN) as f64;

    let (reply, stage_bytes, stage_allocations) = counted(|| {
        dc.call_app(
            "src",
            kv::BULK_PUT,
            &kvstore::encode_bulk_put(ENTRIES, VALUE_LEN, 7),
        )
    });
    let (_, container_len) = kvstore::decode_bulk_put_response(&reply.unwrap()).unwrap();

    dc.deploy_app("dst", dst, &image, KvStore::new(), InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("src", "dst").unwrap();
    let (blob, restore_bytes, restore_allocations) = counted(|| {
        let blob = dc.app_bulk_state("dst").unwrap().expect("staged state");
        dc.call_app("dst", kv::LOAD, &blob).unwrap();
        blob
    });

    assert_eq!(blob.len() as u64, container_len);
    let len = dc.call_app("dst", kv::LEN, &[]).unwrap();
    assert_eq!(len, ENTRIES.to_le_bytes());

    let value = vec![0x5a; VALUE_LEN as usize];
    let put = kvstore::encode_put(b"bulk-00002048", &value);
    let (reply, put_bytes, put_allocations) = counted(|| dc.call_app("dst", kv::PUT, &put));
    reply.unwrap();
    assert_eq!(
        dc.call_app("dst", kv::GET, b"bulk-00002048").unwrap(),
        value
    );

    let stage = stage_bytes as f64 / state_len;
    let restore = restore_bytes as f64 / state_len;
    let put = put_bytes as f64 / state_len;
    assert!(
        stage <= MAX_STAGE_BYTES_PER_STATE_BYTE,
        "BULK_PUT allocated {stage:.2}x the state in {stage_allocations} allocations"
    );
    assert!(
        restore <= MAX_RESTORE_BYTES_PER_STATE_BYTE,
        "app_bulk_state + LOAD allocated {restore:.2}x the state in {restore_allocations} allocations"
    );
    assert!(
        put <= MAX_PUT_BYTES_PER_STATE_BYTE,
        "PUT allocated {put:.3}x the state ({put_bytes} B) in {put_allocations} allocations"
    );
}
