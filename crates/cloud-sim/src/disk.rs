//! Untrusted per-machine persistent storage.
//!
//! Sealed blobs live here: the enclave hands them to the untrusted
//! application, which writes them to the machine's disk (the paper's
//! Table II "persistent data" flow). Because the disk is fully under the
//! adversary's control, it supports **snapshots and rollback** — the exact
//! capability the paper's §III fork and roll-back attacks exploit by
//! re-supplying an old sealed blob to a restarted enclave.
//!
//! Stored values are shared, not copied: a writer that files one blob
//! under two keys (a host's state blob and its checkpoint) hands both
//! the same [`DiskValue`], a writer that files one buffer in pieces
//! (a container page by page) hands each key a range of it, and a
//! snapshot shares every value with the disk it was taken from.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// Why a fallible disk write ([`UntrustedDisk::try_put`]) failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskError {
    /// The write was rejected outright; the stored value (if any) is
    /// unchanged.
    Failed,
    /// The write tore mid-way: a **prefix** of the new value replaced
    /// the old one before the failure (the classic crashed-mid-write
    /// artifact torn-write recovery must tolerate).
    Torn,
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::Failed => write!(f, "disk write failed"),
            DiskError::Torn => write!(f, "disk write torn mid-way"),
        }
    }
}

impl std::error::Error for DiskError {}

/// Verdict a write-fault hook returns for one [`UntrustedDisk::try_put`]
/// attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteFault {
    /// The write proceeds normally.
    None,
    /// The write is rejected; nothing is stored.
    Fail,
    /// The write tears: only the first `keep` bytes of the value are
    /// stored (clamped to the value length), and the write reports
    /// [`DiskError::Torn`].
    Torn {
        /// Prefix length that reaches the platter before the failure.
        keep: usize,
    },
}

/// A write-fault hook: inspects `(key, value)` of each fallible write
/// and decides its fate. Installed per disk via
/// [`UntrustedDisk::set_fault_hook`] (fault injection).
pub type FaultHook = Box<dyn FnMut(&str, &[u8]) -> WriteFault + Send>;

/// A stored value: a range of an immutable buffer, so keys and
/// snapshots share it instead of each holding a copy, and one buffer
/// can back the values of several keys.
#[derive(Clone)]
pub struct DiskValue {
    buf: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl DiskValue {
    /// The bytes `range` of `buf`, sharing the buffer.
    ///
    /// # Panics
    ///
    /// Panics if `range` does not lie within `buf` (caller bug).
    #[must_use]
    pub fn slice(buf: &Arc<Vec<u8>>, range: Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= buf.len(),
            "disk value range out of bounds"
        );
        DiskValue {
            buf: Arc::clone(buf),
            range,
        }
    }

    /// The value's first `len` bytes (all of them if it is shorter),
    /// sharing the buffer.
    #[must_use]
    pub fn prefix(&self, len: usize) -> Self {
        let end = self.range.start + len.min(self.len());
        DiskValue {
            buf: Arc::clone(&self.buf),
            range: self.range.start..end,
        }
    }
}

impl Deref for DiskValue {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.range.clone()]
    }
}

impl From<Arc<Vec<u8>>> for DiskValue {
    fn from(buf: Arc<Vec<u8>>) -> Self {
        let range = 0..buf.len();
        DiskValue { buf, range }
    }
}

impl From<Vec<u8>> for DiskValue {
    fn from(buf: Vec<u8>) -> Self {
        Arc::new(buf).into()
    }
}

impl std::fmt::Debug for DiskValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskValue")
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

/// A point-in-time copy of a disk's contents (an adversary capability).
#[derive(Clone, Debug)]
pub struct DiskSnapshot {
    entries: BTreeMap<String, DiskValue>,
}

impl DiskSnapshot {
    /// Number of stored objects in the snapshot.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Reads a single object out of the snapshot without restoring it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&[u8]> {
        self.entries.get(key).map(|value| &**value)
    }
}

/// An untrusted key-value disk. Cloneable handle; clones share contents.
///
/// # Example
///
/// ```
/// use cloud_sim::disk::UntrustedDisk;
///
/// let disk = UntrustedDisk::new();
/// disk.put("blob", b"v1".to_vec());
/// let snap = disk.snapshot();          // adversary saves old state
/// disk.put("blob", b"v2".to_vec());
/// disk.restore(&snap);                 // ... and rolls it back later
/// assert_eq!(disk.get("blob").unwrap(), b"v1");
/// ```
#[derive(Clone, Default)]
pub struct UntrustedDisk {
    /// Ordered, so a file deleted frees its slot (a container's pages
    /// come and go by the thousand) and keys list in order.
    entries: Arc<Mutex<BTreeMap<String, DiskValue>>>,
    /// Shared across clones: every handle on the machine's disk sees the
    /// same injected faults.
    fault_hook: Arc<Mutex<Option<FaultHook>>>,
}

impl std::fmt::Debug for UntrustedDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UntrustedDisk")
            .field("objects", &self.entries.lock().len())
            .field("fault_hook", &self.fault_hook.lock().is_some())
            .finish()
    }
}

impl UntrustedDisk {
    /// Creates an empty disk.
    #[must_use]
    pub fn new() -> Self {
        UntrustedDisk::default()
    }

    /// Stores `value` under `key`, replacing any previous value.
    ///
    /// Infallible and immune to injected faults — this is the adversary's
    /// (and test harness's) direct handle on the medium. Durability-aware
    /// writers go through [`UntrustedDisk::try_put`].
    pub fn put(&self, key: &str, value: impl Into<DiskValue>) {
        self.entries.lock().insert(key.to_string(), value.into());
    }

    /// Stores `value` under `key` through the fault hook, if installed.
    /// A [`DiskValue`] is stored as it is, shared with the caller.
    ///
    /// # Errors
    ///
    /// [`DiskError::Failed`] leaves the stored value unchanged;
    /// [`DiskError::Torn`] stores a prefix of `value` before failing.
    pub fn try_put(&self, key: &str, value: impl Into<DiskValue>) -> Result<(), DiskError> {
        let value = value.into();
        let fault = match &mut *self.fault_hook.lock() {
            Some(hook) => hook(key, &value),
            None => WriteFault::None,
        };
        match fault {
            WriteFault::None => {
                let mut entries = self.entries.lock();
                match entries.get_mut(key) {
                    Some(stored) => *stored = value,
                    None => {
                        entries.insert(key.to_string(), value);
                    }
                }
                Ok(())
            }
            WriteFault::Fail => Err(DiskError::Failed),
            WriteFault::Torn { keep } => {
                self.entries
                    .lock()
                    .insert(key.to_string(), value.prefix(keep));
                Err(DiskError::Torn)
            }
        }
    }

    /// Installs the write-fault hook consulted by every
    /// [`UntrustedDisk::try_put`] on this disk (all clones share it).
    pub fn set_fault_hook(&self, hook: impl FnMut(&str, &[u8]) -> WriteFault + Send + 'static) {
        *self.fault_hook.lock() = Some(Box::new(hook));
    }

    /// Removes the installed write-fault hook, restoring reliable writes.
    pub fn clear_fault_hook(&self) {
        *self.fault_hook.lock() = None;
    }

    /// Reads the value under `key`.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        self.entries.lock().get(key).map(|value| value.to_vec())
    }

    /// The value under `key`, shared with the disk instead of copied.
    #[must_use]
    pub fn value(&self, key: &str) -> Option<DiskValue> {
        self.entries.lock().get(key).cloned()
    }

    /// Length in bytes of the value under `key`, without copying it
    /// (metadata-only lookup).
    #[must_use]
    pub fn len(&self, key: &str) -> Option<usize> {
        self.entries.lock().get(key).map(|value| value.len())
    }

    /// Deletes the value under `key`, returning it if present: shared
    /// as it was stored, not copied.
    pub fn delete(&self, key: &str) -> Option<DiskValue> {
        self.entries.lock().remove(key)
    }

    /// Lists all keys (sorted, for determinism).
    #[must_use]
    pub fn keys(&self) -> Vec<String> {
        self.entries.lock().keys().cloned().collect()
    }

    /// Adversary capability: copies the entire disk state.
    #[must_use]
    pub fn snapshot(&self) -> DiskSnapshot {
        DiskSnapshot {
            entries: self.entries.lock().clone(),
        }
    }

    /// Adversary capability: replaces the disk contents with a snapshot.
    pub fn restore(&self, snapshot: &DiskSnapshot) {
        *self.entries.lock() = snapshot.entries.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let disk = UntrustedDisk::new();
        assert_eq!(disk.get("a"), None);
        disk.put("a", vec![1, 2]);
        assert_eq!(disk.get("a").unwrap(), vec![1, 2]);
        assert_eq!(disk.delete("a").as_deref(), Some(&[1, 2][..]));
        assert_eq!(disk.get("a"), None);
        assert!(disk.delete("a").is_none());
    }

    #[test]
    fn overwrite_replaces() {
        let disk = UntrustedDisk::new();
        disk.put("k", b"old".to_vec());
        disk.put("k", b"new".to_vec());
        assert_eq!(disk.get("k").unwrap(), b"new");
    }

    #[test]
    fn snapshot_and_rollback() {
        let disk = UntrustedDisk::new();
        disk.put("state", b"v1".to_vec());
        disk.put("other", b"x".to_vec());
        let snap = disk.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.get("state").unwrap(), b"v1");

        disk.put("state", b"v2".to_vec());
        disk.delete("other");
        disk.restore(&snap);
        assert_eq!(disk.get("state").unwrap(), b"v1");
        assert_eq!(disk.get("other").unwrap(), b"x");
    }

    #[test]
    fn snapshot_is_immutable_copy() {
        let disk = UntrustedDisk::new();
        disk.put("k", b"v1".to_vec());
        let snap = disk.snapshot();
        disk.put("k", b"v2".to_vec());
        // The snapshot still holds the old value.
        assert_eq!(snap.get("k").unwrap(), b"v1");
    }

    #[test]
    fn one_value_filed_under_two_keys_is_stored_once() {
        let disk = UntrustedDisk::new();
        let buf = Arc::new(b"blob".to_vec());
        let value = DiskValue::from(Arc::clone(&buf));
        disk.try_put("state", value.clone()).unwrap();
        disk.try_put("ckpt/0", value).unwrap();
        // Both keys and the caller hold the one buffer.
        assert_eq!(Arc::strong_count(&buf), 3);
        let snap = disk.snapshot();
        assert_eq!(Arc::strong_count(&buf), 5);
        assert_eq!(disk.get("state").unwrap(), b"blob");
        assert_eq!(snap.get("ckpt/0").unwrap(), b"blob");
        // A deleted value is handed back as it was stored, not copied.
        let deleted = disk.delete("state").unwrap();
        assert_eq!(&*deleted, b"blob");
        assert_eq!(Arc::strong_count(&buf), 5);
        drop(deleted);
        assert_eq!(Arc::strong_count(&buf), 4);
    }

    #[test]
    fn ranges_of_one_buffer_back_several_keys() {
        let disk = UntrustedDisk::new();
        let buf = Arc::new(b"page0page1tail".to_vec());
        for (i, range) in [0..5, 5..10, 10..14].into_iter().enumerate() {
            disk.try_put(&format!("p{i}"), DiskValue::slice(&buf, range))
                .unwrap();
        }
        assert_eq!(Arc::strong_count(&buf), 4);
        assert_eq!(disk.get("p1").unwrap(), b"page1");
        assert_eq!(&*disk.value("p2").unwrap(), b"tail");
        assert_eq!(disk.len("p0"), Some(5));
        // A torn write keeps a prefix of its range, still shared.
        disk.set_fault_hook(|_, _| WriteFault::Torn { keep: 2 });
        let torn = disk.try_put("p1", DiskValue::slice(&buf, 5..10));
        assert_eq!(torn, Err(DiskError::Torn));
        assert_eq!(disk.get("p1").unwrap(), b"pa");
        assert_eq!(Arc::strong_count(&buf), 4);
    }

    #[test]
    fn clones_share_state() {
        let disk = UntrustedDisk::new();
        let alias = disk.clone();
        disk.put("k", b"v".to_vec());
        assert_eq!(alias.get("k").unwrap(), b"v");
    }

    #[test]
    fn try_put_without_hook_behaves_like_put() {
        let disk = UntrustedDisk::new();
        disk.try_put("k", b"v".to_vec()).unwrap();
        assert_eq!(disk.get("k").unwrap(), b"v");
    }

    #[test]
    fn failed_write_leaves_old_value() {
        let disk = UntrustedDisk::new();
        disk.put("k", b"old".to_vec());
        disk.set_fault_hook(|_, _| WriteFault::Fail);
        assert_eq!(disk.try_put("k", b"new".to_vec()), Err(DiskError::Failed));
        assert_eq!(disk.get("k").unwrap(), b"old");
        // The infallible path is immune to the hook.
        disk.put("k", b"direct".to_vec());
        assert_eq!(disk.get("k").unwrap(), b"direct");
        disk.clear_fault_hook();
        disk.try_put("k", b"new".to_vec()).unwrap();
        assert_eq!(disk.get("k").unwrap(), b"new");
    }

    #[test]
    fn torn_write_stores_prefix_and_errors() {
        let disk = UntrustedDisk::new();
        disk.put("k", b"previous".to_vec());
        disk.set_fault_hook(|_, value| WriteFault::Torn {
            keep: value.len() / 2,
        });
        assert_eq!(
            disk.try_put("k", b"abcdefgh".to_vec()),
            Err(DiskError::Torn)
        );
        assert_eq!(disk.get("k").unwrap(), b"abcd");
    }

    #[test]
    fn fault_hook_is_shared_across_clones() {
        let disk = UntrustedDisk::new();
        let alias = disk.clone();
        disk.set_fault_hook(|_, _| WriteFault::Fail);
        assert_eq!(alias.try_put("k", vec![1]), Err(DiskError::Failed));
    }

    #[test]
    fn hook_sees_key_and_value() {
        let disk = UntrustedDisk::new();
        disk.set_fault_hook(|key, value| {
            if key.starts_with("ckpt/") && value.len() > 2 {
                WriteFault::Fail
            } else {
                WriteFault::None
            }
        });
        disk.try_put("ckpt/1", vec![0; 8]).unwrap_err();
        disk.try_put("ckpt/2", vec![0; 2]).unwrap();
        disk.try_put("other", vec![0; 8]).unwrap();
    }

    #[test]
    fn keys_are_sorted() {
        let disk = UntrustedDisk::new();
        disk.put("zeta", vec![]);
        disk.put("alpha", vec![]);
        disk.put("mid", vec![]);
        assert_eq!(disk.keys(), vec!["alpha", "mid", "zeta"]);
    }
}
