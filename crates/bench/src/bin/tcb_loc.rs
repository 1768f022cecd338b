//! E4 — TCB size accounting (paper §VII-A, "Software TCB size").
//!
//! The paper reports the Migration Enclave at **217 LoC** and the
//! Migration Library at **940 LoC** (excluding the SGX trusted
//! libraries). This tool counts the equivalent in-enclave trusted code of
//! this reproduction the same way — non-blank, non-comment lines,
//! excluding tests — and prints the comparison. The ME is every file of
//! `me/` plus the transfer engine it runs (`transfer/{chunker,delta,mod}.rs`);
//! the library is every file of `library/` plus its channel, attestation
//! and message code.
//!
//! ```sh
//! cargo run -p mig-bench --bin tcb_loc
//! ```

use std::fs;
use std::path::{Path, PathBuf};

/// Counts non-blank, non-comment lines, stopping at `#[cfg(test)]`
/// (everything after the test marker is test code in this workspace's
/// module layout).
fn count_loc(path: &Path) -> usize {
    let source = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    let mut loc = 0usize;
    let mut in_block_comment = false;
    for line in source.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("#[cfg(test)]") {
            break;
        }
        if in_block_comment {
            if trimmed.contains("*/") {
                in_block_comment = false;
            }
            continue;
        }
        if trimmed.is_empty()
            || trimmed.starts_with("//")
            || trimmed.starts_with("///")
            || trimmed.starts_with("//!")
        {
            continue;
        }
        if trimmed.starts_with("/*") {
            if !trimmed.contains("*/") {
                in_block_comment = true;
            }
            continue;
        }
        loc += 1;
    }
    loc
}

/// The `.rs` files under `dir`, recursively, in path order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("read {dir:?}: {e}"));
    for entry in entries {
        let path = entry.unwrap_or_else(|e| panic!("read {dir:?}: {e}")).path();
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    files.sort();
    files
}

/// Prints each file's count under `title` and returns the total.
fn section(title: &str, root: &Path, files: &[PathBuf], paper: usize) -> usize {
    println!("{title}:");
    let mut total = 0;
    for file in files {
        let loc = count_loc(file);
        let name = file.strip_prefix(root).unwrap_or(file).display();
        println!("  {name:<28} {loc:>5} LoC");
        total += loc;
    }
    println!("  {:<28} {total:>5} LoC   (paper: {paper})\n", "total");
    total
}

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/src");
    let root = root.canonicalize().unwrap_or(root);

    // The ME: its directory, and the transfer engine it runs (chunk
    // streams and dirty-page deltas); the checkpoint store is host code.
    let mut me_files = rust_files(&root.join("me"));
    me_files.extend(
        [
            "transfer/chunker.rs",
            "transfer/delta.rs",
            "transfer/mod.rs",
        ]
        .map(|f| root.join(f)),
    );
    let mut lib_files = rust_files(&root.join("library"));
    lib_files.extend(["secure_channel.rs", "remote_attest.rs", "msgs.rs"].map(|f| root.join(f)));

    println!("=== E4 — software TCB size (cf. paper §VII-A) ===\n");
    section("Migration Enclave (trusted)", &root, &me_files, 217);
    section(
        "Migration Library (trusted, linked into each enclave)",
        &root,
        &lib_files,
        940,
    );

    println!("note: this reproduction in-lines the attestation/channel machinery the");
    println!("paper counts under 'SGX trusted libraries' (sgx_dh, RA key exchange),");
    println!("so the library total here covers strictly more functionality.");
}
