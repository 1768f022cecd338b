//! **mig-core** — the migration framework of *Migrating SGX Enclaves with
//! Persistent State* (Alder, Kurnikov, Paverd, Asokan; DSN 2018),
//! implemented on the simulated SGX datacenter of the `sgx-sim` and
//! `cloud-sim` crates.
//!
//! # The problem
//!
//! SGX sealing keys and monotonic counters are bound to one physical
//! machine. Migrating a VM with an enclave therefore either loses the
//! enclave's persistent state (sealed data becomes undecryptable) or —
//! worse — enables *fork* and *roll-back* attacks if the state is made
//! portable naively (paper §III; reproduced in `tests/attacks.rs`).
//!
//! # The design (paper §V)
//!
//! * [`library`] — the **Migration Library**, linked into each migratable
//!   enclave: migratable sealing under a Migration Sealing Key,
//!   migratable counters as hardware counter + offset, the freeze flag,
//!   and the `migration_init` / `migration_start` entry points.
//! * [`me`] — the **Migration Enclave**, one per machine: locally attests
//!   application enclaves, mutually remote-attests peer MEs, verifies the
//!   operator [`operator::MeCredential`] and transcript signatures,
//!   enforces [`policy::MigrationPolicy`], matches migration data to
//!   destination enclaves by MRENCLAVE, and retains data until delivery
//!   is confirmed.
//! * [`harness`] — the enclave wrapper composing application logic with
//!   the library behind a uniform ECALL ABI.
//! * [`host`] — the untrusted host processes relaying ciphertexts.
//! * [`datacenter`] — a facade wiring everything into a runnable
//!   simulated datacenter.
//! * [`baseline`] — the native (non-migratable) enclave baseline of
//!   Figs. 3–4 and the Gu-et-al-style memory-migration baseline attacked
//!   in §III.
//! * [`transfer`] — the CTR-style extension beyond the paper: a durable
//!   [`transfer::checkpoint::CheckpointStore`] on the untrusted disk and
//!   a chunked, resumable, HMAC-chained streaming engine
//!   ([`transfer::chunker`]) that replaces the single-shot transfer for
//!   state above [`transfer::TransferConfig::stream_threshold`]. Apps
//!   stage bulk state via
//!   [`library::MigrationLibrary::stage_bulk_state`]; the Migration
//!   Enclaves pipeline it as windowed `Chunk` messages over the attested
//!   channel, persist per-chunk progress, and — driven by
//!   [`datacenter::Datacenter::migrate_app_resumable`] /
//!   [`datacenter::Datacenter::resume_migration`] — recover a
//!   mid-transfer machine crash from the last acknowledged chunk.
//!
//! # Quick start
//!
//! ```
//! use mig_core::datacenter::Datacenter;
//! use mig_core::harness::{AppCtx, AppLogic};
//! use mig_core::library::InitRequest;
//! use mig_core::policy::MigrationPolicy;
//! use cloud_sim::machine::MachineLabels;
//! use sgx_sim::measurement::{EnclaveImage, EnclaveSigner};
//! use sgx_sim::SgxError;
//!
//! // A minimal migratable enclave: seals a secret, keeps a counter.
//! struct Vault;
//! impl AppLogic for Vault {
//!     fn handle(&mut self, ctx: &mut AppCtx<'_, '_>, op: u32, input: &[u8])
//!         -> Result<Vec<u8>, SgxError>
//!     {
//!         match op {
//!             1 => Ok(ctx.lib.seal_migratable_data(ctx.env, b"", input)?),
//!             2 => Ok(ctx.lib.unseal_migratable_data(ctx.env, input)?.0),
//!             _ => Err(SgxError::InvalidParameter("opcode")),
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut dc = Datacenter::new(7);
//! let policy = MigrationPolicy::same_operator_only();
//! let m1 = dc.add_machine(MachineLabels::new("dc-1", "eu"), &policy);
//! let m2 = dc.add_machine(MachineLabels::new("dc-1", "eu"), &policy);
//!
//! let image = EnclaveImage::build("vault", 1, b"vault v1", &EnclaveSigner::from_seed([1; 32]));
//! dc.deploy_app("vault-src", m1, &image, Vault, InitRequest::New)?;
//! let sealed = dc.call_app("vault-src", 1, b"the secret")?;
//!
//! // Deploy the destination and migrate the persistent state.
//! dc.deploy_app("vault-dst", m2, &image, Vault, InitRequest::Migrate)?;
//! dc.migrate_app("vault-src", "vault-dst")?;
//!
//! // The sealed blob travelled as opaque bytes; the destination unseals it.
//! assert_eq!(dc.call_app("vault-dst", 2, &sealed)?, b"the secret");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod datacenter;
pub mod error;
pub mod harness;
pub mod host;
pub mod library;
pub mod me;
pub mod msgs;
pub mod operator;
pub mod policy;
pub mod remote_attest;
pub mod secure_channel;
pub mod supervisor;
pub mod transfer;

pub use error::{ChannelPeer, MigError};

/// A zero-filled `Arc<[u8]>` of `len` bytes in one allocation: the
/// buffer a receiver writes a state into (through `Arc::get_mut`, while
/// it is unshared) and then keeps, so the state is never copied again.
pub(crate) fn zeroed_arc(len: usize) -> std::sync::Arc<[u8]> {
    std::iter::repeat_n(0, len).collect()
}
