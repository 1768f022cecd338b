//! Fleet operations: evacuating a machine for maintenance.
//!
//! ```sh
//! cargo run --example datacenter_rollout
//! ```
//!
//! The cloud-operations scenario that motivates the paper: a machine
//! must be drained (kernel upgrade, hardware fault), and every VM on it
//! — including those with SGX enclaves holding persistent state — must
//! move. VM memory moves with ordinary live migration; the enclaves'
//! persistent state moves with the migration framework. The example
//! compares the two costs, showing the enclave overhead is marginal
//! (the paper's §VII-B argument).

use cloud_sim::machine::MachineLabels;
use mig_apps::kvstore::{self, KvStore};
use mig_core::datacenter::Datacenter;
use mig_core::library::InitRequest;
use mig_core::policy::MigrationPolicy;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Draining a machine with migratable enclaves ==\n");

    let mut dc = Datacenter::new(77);
    // Compliance: these enclaves may only live in the EU region.
    let policy = MigrationPolicy::regions(&["eu"]);
    let m1 = dc.add_machine(MachineLabels::new("dc-1", "eu"), &policy);
    let m2 = dc.add_machine(MachineLabels::new("dc-1", "eu"), &policy);
    let m3 = dc.add_machine(MachineLabels::new("dc-2", "eu"), &policy);
    println!("fleet: {m1} (to drain), {m2}, {m3} — policy: EU region only\n");

    // Three tenant enclaves on m1, each with sealed state + counters.
    // Each tenant runs its own enclave build: the framework matches
    // migrations by MRENCLAVE, so one machine hosts one instance per
    // measurement (the paper's §VI-A matching rule).
    let tenants = ["tenant-a", "tenant-b", "tenant-c"];
    let images: Vec<_> = (0..tenants.len())
        .map(|i| {
            sgx_sim::measurement::EnclaveImage::build(
                "mig-apps.kvstore",
                i as u32 + 1, // per-tenant build ⇒ distinct MRENCLAVE
                b"sealed kv store enclave",
                &sgx_sim::measurement::EnclaveSigner::from_seed(
                    *b"rollout example tenant signer!!!",
                ),
            )
        })
        .collect();
    for (tenant, image) in tenants.iter().zip(&images) {
        dc.deploy_app(tenant, m1, image, KvStore::new(), InitRequest::New)?;
        dc.call_app(tenant, kvstore::ops::INIT, &[])?;
        for i in 0..3u32 {
            // The untrusted host stores the store's changed pages.
            dc.call_app(
                tenant,
                kvstore::ops::PUT,
                &kvstore::encode_put(format!("key-{i}").as_bytes(), tenant.as_bytes()),
            )?;
        }
    }
    println!(
        "deployed {} tenants on {m1}, each with versioned sealed state",
        tenants.len()
    );

    // Their VMs (4 GiB each) migrate with plain live migration.
    let vms: Vec<_> = tenants
        .iter()
        .map(|_| dc.world_mut().create_vm(m1, 4 << 30))
        .collect();

    // Drain: round-robin the tenants across the remaining machines.
    let targets = [m2, m3, m2];
    let mut enclave_total = Duration::ZERO;
    let mut vm_total = Duration::ZERO;
    println!("\ndraining {m1}:");
    for (((tenant, image), vm), target) in tenants.iter().zip(&images).zip(vms).zip(targets) {
        let dst_instance = format!("{tenant}@{target}");
        dc.deploy_app(
            &dst_instance,
            target,
            image,
            KvStore::new(),
            InitRequest::Migrate,
        )?;
        let enclave_time = dc.migrate_app(tenant, &dst_instance)?;
        let vm_time = dc.world_mut().migrate_vm(vm, target);
        enclave_total += enclave_time;
        vm_total += vm_time;
        println!(
            "  {tenant}: enclave state {:>8.3} ms | VM memory {:>8.1} ms -> {target}",
            enclave_time.as_secs_f64() * 1e3,
            vm_time.as_secs_f64() * 1e3,
        );
    }

    println!(
        "\ntotals: enclave migration {:.3} ms vs VM migration {:.1} ms",
        enclave_total.as_secs_f64() * 1e3,
        vm_total.as_secs_f64() * 1e3,
    );
    println!(
        "enclave overhead is {:.2}% of the VM copy — the paper's 'order of magnitude lower' goal",
        100.0 * enclave_total.as_secs_f64() / vm_total.as_secs_f64()
    );

    // Verify every tenant's state arrived intact: each migrated enclave
    // loads the container that migrated with it (the version check
    // against the migrated counter guarantees freshness).
    for (tenant, target) in tenants.iter().zip(targets) {
        let dst_instance = format!("{tenant}@{target}");
        let container = dc
            .app_bulk_state(&dst_instance)?
            .ok_or("no migrated container")?;
        dc.call_app(&dst_instance, kvstore::ops::LOAD, &container)?;
        let len = dc.call_app(&dst_instance, kvstore::ops::LEN, &[])?;
        assert_eq!(u32::from_le_bytes(len[..4].try_into()?), 3);
        let v = dc.call_app(&dst_instance, kvstore::ops::GET, b"key-1")?;
        assert_eq!(v, tenant.as_bytes());
    }
    println!("\nall tenant state verified on the new machines; {m1} is empty and drainable.");

    // Policy check still holds: a non-EU machine cannot receive them.
    let m4 = dc.add_machine(MachineLabels::new("dc-9", "us"), &policy);
    dc.deploy_app(
        "tenant-a@us",
        m4,
        &images[0],
        KvStore::new(),
        InitRequest::Migrate,
    )?;
    let err = dc
        .migrate_app(&format!("tenant-a@{m2}"), "tenant-a@us")
        .unwrap_err();
    println!("attempt to move tenant-a to {m4} (region us): refused ({err})");
    Ok(())
}
