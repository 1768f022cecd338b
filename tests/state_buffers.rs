//! How many state-size buffers one kvstore handoff allocates.
//!
//! A 16 MiB kvstore moves to a second machine (`migrate_app`) and is
//! restored there (`app_bulk_state` + `LOAD`). This binary's global
//! allocator counts every allocation of at least the state's size made
//! meanwhile. Ten remain, each a trust-boundary crossing or an enclave's
//! own copy (README, "State buffers"):
//!
//! 1. the `MIG_START` output, with the request sealed in it, which the
//!    source host relays as its `LIB_MSG` frame;
//! 2. the source ME's `LIB_MSG` ECALL input;
//! 3. the source ME's opened request;
//! 4. the destination ME's assembled state;
//! 5. the destination ME's `TRANSFER` output, with the forward sealed in
//!    it, which the host relays as its `ME_FORWARD` frame;
//! 6. the destination library's opened state;
//! 7. the `ME_CT` envelope, with the library's persist blob sealed in it;
//! 8. the host's copy of that blob, shared by the state key and the
//!    checkpoint;
//! 9. the `BULK_STATE` output;
//! 10. the kvstore's snapshot plaintext.
//!
//! The file holds this one test, so nothing else allocates during the
//! counted window.

use cloud_sim::machine::MachineLabels;
use mig_apps::kvstore::{self, ops as kv, KvStore};
use mig_core::datacenter::Datacenter;
use mig_core::library::InitRequest;
use mig_core::policy::MigrationPolicy;
use sgx_sim::measurement::{EnclaveImage, EnclaveSigner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting allocations of at least [`THRESHOLD`]
/// bytes: fresh blocks and blocks grown to that size.
struct Counting;

/// Smallest allocation counted (`usize::MAX`: none).
static THRESHOLD: AtomicUsize = AtomicUsize::new(usize::MAX);
/// Allocations counted so far.
static LARGE: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if size >= THRESHOLD.load(Relaxed) {
        LARGE.fetch_add(1, Relaxed);
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
            note(new_size);
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
/// Most state-size allocations one handoff may make.
const MAX_STATE_BUFFERS: usize = 10;

#[test]
fn a_handoff_allocates_at_most_ten_state_size_buffers() {
    let mut dc = Datacenter::new(20);
    let policy = MigrationPolicy::same_operator_only();
    let src = dc.add_machine(MachineLabels::new("dc-1", "eu"), &policy);
    let dst = dc.add_machine(MachineLabels::new("dc-1", "eu"), &policy);
    let image = EnclaveImage::build(
        "state-buffers-kv",
        1,
        b"kvstore",
        &EnclaveSigner::from_seed([20; 32]),
    );
    dc.deploy_app("src", src, &image, KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("src", kv::INIT, &[]).unwrap();
    dc.call_app(
        "src",
        kv::BULK_PUT,
        &kvstore::encode_bulk_put(ENTRIES, VALUE_LEN, 7),
    )
    .unwrap();
    dc.deploy_app("dst", dst, &image, KvStore::new(), InitRequest::Migrate)
        .unwrap();

    let state_len = ENTRIES as usize * VALUE_LEN as usize;
    THRESHOLD.store(state_len, Relaxed);
    dc.migrate_app("src", "dst").unwrap();
    let blob = dc.app_bulk_state("dst").unwrap().expect("staged state");
    dc.call_app("dst", kv::LOAD, &blob).unwrap();
    THRESHOLD.store(usize::MAX, Relaxed);
    let buffers = LARGE.load(Relaxed);

    let len = dc.call_app("dst", kv::LEN, &[]).unwrap();
    assert_eq!(len, ENTRIES.to_le_bytes());
    assert!(blob.len() > state_len);
    assert!(
        buffers <= MAX_STATE_BUFFERS,
        "{buffers} allocations of at least {state_len} bytes"
    );
}
