//! A durable, generation-numbered checkpoint store on the untrusted
//! per-machine disk.
//!
//! Checkpoints are opaque *sealed* blobs — the store adds durability and
//! ordering, never confidentiality or integrity (the disk is
//! adversary-controlled; sealing provides those). Each `put` assigns the
//! next generation number, updates the `latest` pointer, and prunes old
//! generations beyond the retention count, so a crashed host always
//! finds a recent complete checkpoint even if it died mid-write of a
//! newer one.

use cloud_sim::disk::{DiskError, DiskValue, UntrustedDisk};

/// Default number of retained checkpoint generations.
pub const DEFAULT_KEEP: usize = 4;

/// Metadata of a stored checkpoint, readable without copying the blob.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Generation number.
    pub generation: u64,
    /// Blob length in bytes.
    pub len: u64,
}

/// A namespaced checkpoint series on one machine's untrusted disk.
#[derive(Clone)]
pub struct CheckpointStore {
    disk: UntrustedDisk,
    namespace: String,
    keep: usize,
}

impl std::fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("namespace", &self.namespace)
            .field("keep", &self.keep)
            .finish_non_exhaustive()
    }
}

impl CheckpointStore {
    /// Opens the series `namespace` on `disk` with default retention.
    #[must_use]
    pub fn new(disk: UntrustedDisk, namespace: &str) -> Self {
        Self::with_keep(disk, namespace, DEFAULT_KEEP)
    }

    /// Opens the series with an explicit retention count (min 1).
    #[must_use]
    pub fn with_keep(disk: UntrustedDisk, namespace: &str, keep: usize) -> Self {
        CheckpointStore {
            disk,
            namespace: namespace.to_string(),
            keep: keep.max(1),
        }
    }

    fn blob_key(&self, generation: u64) -> String {
        format!("{}/ckpt/{generation:020}", self.namespace)
    }

    fn latest_key(&self) -> String {
        format!("{}/ckpt-latest", self.namespace)
    }

    /// The most recent generation number, if any checkpoint exists.
    #[must_use]
    pub fn latest_generation(&self) -> Option<u64> {
        let raw = self.disk.get(&self.latest_key())?;
        Some(u64::from_le_bytes(raw.try_into().ok()?))
    }

    /// Stores a checkpoint, returning its generation number. A
    /// [`DiskValue`] is stored shared, not copied.
    ///
    /// The `latest` pointer is written last: on any error the pointer is
    /// untouched, so the previous generation stays authoritative and a
    /// torn or failed blob write is never pointed to. A failed put may
    /// leave an orphan blob at the unpointed generation; the next
    /// successful put reuses and overwrites that generation.
    ///
    /// # Errors
    ///
    /// Any disk write that fails or tears ([`DiskError`]) aborts the put.
    pub fn put(&self, blob: impl Into<DiskValue>) -> Result<u64, DiskError> {
        let generation = self.latest_generation().map_or(0, |g| g + 1);
        self.disk.try_put(&self.blob_key(generation), blob)?;
        self.disk
            .try_put(&self.latest_key(), generation.to_le_bytes().to_vec())?;
        // Prune beyond the retention window.
        if let Some(expired) = generation.checked_sub(self.keep as u64) {
            self.disk.delete(&self.blob_key(expired));
        }
        Ok(generation)
    }

    /// Reads a specific generation.
    #[must_use]
    pub fn get(&self, generation: u64) -> Option<Vec<u8>> {
        self.disk.get(&self.blob_key(generation))
    }

    /// Reads the most recent checkpoint.
    #[must_use]
    pub fn latest(&self) -> Option<(u64, Vec<u8>)> {
        let generation = self.latest_generation()?;
        Some((generation, self.get(generation)?))
    }

    /// Metadata of the most recent checkpoint without loading the blob —
    /// the cheap existence/size probe for resume paths that only need to
    /// know *whether* (and how much) state is on disk.
    #[must_use]
    pub fn latest_meta(&self) -> Option<CheckpointMeta> {
        let generation = self.latest_generation()?;
        let len = self.disk.len(&self.blob_key(generation))? as u64;
        Some(CheckpointMeta { generation, len })
    }

    /// Generations currently on disk (ascending).
    #[must_use]
    pub fn generations(&self) -> Vec<u64> {
        let prefix = format!("{}/ckpt/", self.namespace);
        self.disk
            .keys()
            .into_iter()
            .filter_map(|k| k.strip_prefix(&prefix).and_then(|g| g.parse().ok()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_latest_get_round_trip() {
        let store = CheckpointStore::new(UntrustedDisk::new(), "app:a");
        assert!(store.latest().is_none());
        assert_eq!(store.put(b"v0".to_vec()).unwrap(), 0);
        assert_eq!(store.put(b"v1".to_vec()).unwrap(), 1);
        assert_eq!(store.latest().unwrap(), (1, b"v1".to_vec()));
        assert_eq!(store.get(0).unwrap(), b"v0");
    }

    #[test]
    fn prunes_beyond_retention() {
        let store = CheckpointStore::with_keep(UntrustedDisk::new(), "app:b", 2);
        for i in 0..5u8 {
            store.put(vec![i]).unwrap();
        }
        assert_eq!(store.generations(), vec![3, 4]);
        assert_eq!(store.latest().unwrap(), (4, vec![4]));
        assert!(store.get(2).is_none());
    }

    #[test]
    fn latest_meta_matches_latest_without_loading() {
        let store = CheckpointStore::new(UntrustedDisk::new(), "app:f");
        assert!(store.latest_meta().is_none());
        store.put(vec![7; 1234]).unwrap();
        let meta = store.latest_meta().unwrap();
        assert_eq!(meta.generation, 0);
        assert_eq!(meta.len, 1234);
        let (generation, blob) = store.latest().unwrap();
        assert_eq!((meta.generation, meta.len), (generation, blob.len() as u64));
    }

    #[test]
    fn failed_put_leaves_previous_generation_authoritative() {
        use cloud_sim::disk::WriteFault;

        let disk = UntrustedDisk::new();
        let store = CheckpointStore::new(disk.clone(), "app:g");
        store.put(b"good".to_vec()).unwrap();

        // Fail the next blob write outright, then tear the one after.
        let mut faults = vec![WriteFault::Torn { keep: 1 }, WriteFault::Fail];
        disk.set_fault_hook(move |key: &str, _value: &[u8]| {
            if key.contains("/ckpt/") {
                faults.pop().unwrap_or(WriteFault::None)
            } else {
                WriteFault::None
            }
        });

        assert_eq!(store.put(b"lost".to_vec()), Err(DiskError::Failed));
        assert_eq!(store.put(b"torn".to_vec()), Err(DiskError::Torn));
        // The latest pointer never moved off the good generation.
        assert_eq!(store.latest().unwrap(), (0, b"good".to_vec()));

        // With the fault budget exhausted, the next put succeeds and
        // overwrites the unpointed generation.
        assert_eq!(store.put(b"next".to_vec()).unwrap(), 1);
        assert_eq!(store.latest().unwrap(), (1, b"next".to_vec()));
    }

    #[test]
    fn namespaces_are_independent() {
        let disk = UntrustedDisk::new();
        let a = CheckpointStore::new(disk.clone(), "a");
        let b = CheckpointStore::new(disk, "b");
        a.put(b"for a".to_vec()).unwrap();
        assert!(b.latest().is_none());
        b.put(b"for b".to_vec()).unwrap();
        assert_eq!(a.latest().unwrap().1, b"for a");
        assert_eq!(b.latest().unwrap().1, b"for b");
    }
}
