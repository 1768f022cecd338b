//! The five mig-lint rules.
//!
//! Every rule works on scrubbed text (see [`crate::scrub`]) and reports
//! byte offsets; the driver in [`crate::lint_files`] maps offsets to
//! lines, attaches snippets, and applies `mig-lint: allow` annotations.
//!
//! | rule | invariant |
//! |------|-----------|
//! | `ct-compare` | digest/MAC/tag comparison must use `mig_crypto::ct` |
//! | `enclave-panic` | no unannotated panic path in enclave-resident code |
//! | `secret-hygiene` | secret types don't print; key types zeroize on drop |
//! | `wire-framing` | MeToMe frames are built only in `me/wire.rs` |
//! | `no-wildcard-fsm` | no catch-all arms in the session FSM matches |

use crate::scan::{find_from, match_brace, match_paren, SourceFile};

/// The rule identifiers, as used in reports and `allow(...)` annotations.
pub const RULES: [&str; 5] = [
    "ct-compare",
    "enclave-panic",
    "no-wildcard-fsm",
    "secret-hygiene",
    "wire-framing",
];

/// Types that must never derive `Debug` or implement `Display`: their
/// fields are key material or plaintext persistent state.
const NO_PRINT_TYPES: [&str; 11] = [
    "MigrationData",
    "LibraryState",
    "Aes128",
    "AesGcm",
    "SoftwareGcm",
    "HwGcmKey",
    "Sha256",
    "Sha512",
    "HmacSha256",
    "HmacSha512",
    "FixtureSessionKey",
];

/// Types that must implement `Drop` (zeroization). The HMAC states and
/// `AesGcm` are exempt: they scrub transitively through their `Sha*`
/// fields and their GCM key state (`SoftwareGcm` or `HwGcmKey`).
const MUST_ZEROIZE_TYPES: [&str; 8] = [
    "MigrationData",
    "LibraryState",
    "Aes128",
    "SoftwareGcm",
    "HwGcmKey",
    "Sha256",
    "Sha512",
    "FixtureSessionKey",
];

/// Field/variable names that hold raw key material and must never reach
/// a formatting macro.
const SECRET_FIELDS: [&str; 9] = [
    "msk",
    "round_keys",
    "h_powers",
    "htable",
    "htable2",
    "key_block",
    "ipad",
    "opad",
    "prk",
];

/// Formatting/logging macros checked for secret leakage.
const FORMAT_MACROS: [&str; 17] = [
    "format",
    "println",
    "print",
    "eprintln",
    "eprint",
    "write",
    "writeln",
    "panic",
    "dbg",
    "info",
    "warn",
    "error",
    "debug",
    "trace",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Telemetry sink methods (mig-trace recorder/registry) whose arguments
/// must never carry key material, sealed payload bytes, or the raw
/// transfer nonce — migrations are identified by public trace ids only.
const TELEMETRY_SINKS: [&str; 4] = ["bump_counter", "set_gauge", "observe_ns", "record_event"];

/// Identifiers banned from telemetry-sink arguments on top of
/// [`SECRET_FIELDS`]: the transfer nonce keys the chunk HMAC chain, and
/// sealed blobs carry ciphertext tied to key context.
const TELEMETRY_SECRET_ARGS: [&str; 2] = ["nonce", "sealed"];

/// A rule hit before annotation/line resolution.
pub struct RawViolation {
    /// Which rule fired.
    pub rule: &'static str,
    /// Byte offset of the hit in the file.
    pub offset: usize,
}

/// Cross-file facts gathered per file and resolved by the driver.
#[derive(Default)]
pub struct CrossFileFacts {
    /// `(type name, offset)` for each must-zeroize struct defined here.
    pub zeroize_defs: Vec<(String, usize)>,
    /// Type names with an `impl Drop for T` in this file.
    pub drop_impls: Vec<String>,
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Iterates `(start, end)` byte ranges of identifier-like words in `text`.
fn words(text: &str) -> impl Iterator<Item = (usize, usize)> + '_ {
    let bytes = text.as_bytes();
    let mut i = 0usize;
    std::iter::from_fn(move || {
        while i < bytes.len() && !is_ident(bytes[i]) {
            i += 1;
        }
        if i >= bytes.len() {
            return None;
        }
        let start = i;
        while i < bytes.len() && is_ident(bytes[i]) {
            i += 1;
        }
        Some((start, i))
    })
}

/// Finds every occurrence of `word` in `text` with identifier boundaries.
fn find_word(text: &str, word: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = find_from(text, from, word) {
        from = pos + 1;
        let before_ok = pos == 0 || !is_ident(bytes[pos - 1]);
        let after = pos + word.len();
        let after_ok = after >= bytes.len() || !is_ident(bytes[after]);
        if before_ok && after_ok {
            out.push(pos);
        }
    }
    out
}

/// First non-whitespace byte index at or after `i`.
fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Last non-whitespace byte index strictly before `i`, if any.
fn prev_non_ws(bytes: &[u8], i: usize) -> Option<usize> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        if !bytes[j].is_ascii_whitespace() {
            return Some(j);
        }
    }
    None
}

/// Reads the identifier starting at the first non-ws byte from `i`;
/// returns `(word, end)` or `None` if the next token isn't an identifier.
fn read_ident(text: &str, i: usize) -> Option<(&str, usize)> {
    let bytes = text.as_bytes();
    let s = skip_ws(bytes, i);
    if s >= bytes.len() || !is_ident(bytes[s]) || bytes[s].is_ascii_digit() {
        return None;
    }
    let mut e = s;
    while e < bytes.len() && is_ident(bytes[e]) {
        e += 1;
    }
    Some((&text[s..e], e))
}

/// Whether a word looks like a digest/MAC/tag value.
fn is_sensitive_word(w: &str) -> bool {
    let w = w.to_ascii_lowercase();
    w.contains("digest")
        || w == "mac"
        || w == "tag"
        || w.ends_with("_mac")
        || w.ends_with("_tag")
        || w.starts_with("mac_")
        || w.starts_with("tag_")
}

/// **ct-compare** — `==` / `!=` with a digest/MAC/tag operand outside
/// `mig_crypto::ct` is a timing side channel: short-circuiting slice
/// comparison reveals the first differing byte.
pub fn ct_compare(f: &SourceFile) -> Vec<RawViolation> {
    if f.rel_path.ends_with("crates/crypto/src/ct.rs") || f.rel_path == "crates/crypto/src/ct.rs" {
        return Vec::new();
    }
    let text = &f.scrubbed;
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < bytes.len() {
        let is_eq = bytes[i] == b'=' && bytes[i + 1] == b'=';
        let is_ne = bytes[i] == b'!' && bytes[i + 1] == b'=';
        if !(is_eq || is_ne) {
            i += 1;
            continue;
        }
        // Exclude `<=`, `>=`, `=>`-adjacent and `===`-style runs.
        if is_eq {
            if i > 0 && matches!(bytes[i - 1], b'<' | b'>' | b'!' | b'=') {
                i += 2;
                continue;
            }
            if bytes.get(i + 2) == Some(&b'=') {
                i += 3;
                continue;
            }
        }
        if f.in_test(i) {
            i += 2;
            continue;
        }
        let ls = text[..i].rfind('\n').map_or(0, |p| p + 1);
        let le = find_from(text, i, "\n").unwrap_or(text.len());
        let sides = [&text[ls..i], &text[i + 2..le]];
        let mut hit = false;
        for side in sides {
            for (ws, we) in words(side) {
                if !is_sensitive_word(&side[ws..we]) {
                    continue;
                }
                // Comparing *lengths* of digests is fine.
                let tail = &side[we..];
                if tail.starts_with(".len(") || tail.starts_with(".is_empty(") {
                    continue;
                }
                hit = true;
            }
        }
        if hit {
            out.push(RawViolation {
                rule: "ct-compare",
                offset: i,
            });
        }
        i += 2;
    }
    out
}

/// Whether `enclave-panic` applies to this path: enclave-resident code
/// only — the ME, the migration library, and the sgx-sim trusted parts.
fn is_enclave_path(rel: &str) -> bool {
    rel.starts_with("crates/core/src/me/")
        || rel.starts_with("crates/core/src/library/")
        || rel == "crates/sgx-sim/src/enclave.rs"
        || rel == "crates/sgx-sim/src/seal.rs"
        || rel.contains("fixtures/enclave-panic/")
}

/// **enclave-panic** — a panic inside an enclave aborts the enclave and,
/// mid-migration, can strand retained state; every potential panic site
/// must be converted to `MigError` or carry an `allow` with a reason.
pub fn enclave_panic(f: &SourceFile) -> Vec<RawViolation> {
    if !is_enclave_path(&f.rel_path) {
        return Vec::new();
    }
    let text = &f.scrubbed;
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    for needle in [".unwrap(", ".expect("] {
        let mut from = 0usize;
        while let Some(pos) = find_from(text, from, needle) {
            from = pos + 1;
            if !f.in_test(pos) {
                out.push(RawViolation {
                    rule: "enclave-panic",
                    offset: pos + 1,
                });
            }
        }
    }
    for mac in ["panic", "unreachable", "todo", "unimplemented"] {
        for pos in find_word(text, mac) {
            if bytes.get(pos + mac.len()) == Some(&b'!') && !f.in_test(pos) {
                out.push(RawViolation {
                    rule: "enclave-panic",
                    offset: pos,
                });
            }
        }
    }
    // Slice/array indexing: `[` directly after a value. `#[`, types
    // (`[u8; 16]`), and macro brackets (`vec![`) are all preceded by
    // non-value bytes and skipped.
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'['
            && i > 0
            && (is_ident(bytes[i - 1]) || matches!(bytes[i - 1], b')' | b']' | b'?'))
            && !f.in_test(i)
        {
            out.push(RawViolation {
                rule: "enclave-panic",
                offset: i,
            });
        }
    }
    out
}

/// **no-wildcard-fsm** — catch-all arms in the sender/receiver FSM
/// matches silently swallow protocol states added later; every state
/// must be matched by name.
pub fn no_wildcard_fsm(f: &SourceFile) -> Vec<RawViolation> {
    if !(f.rel_path.ends_with("me/session.rs") || f.rel_path.contains("fixtures/no-wildcard-fsm/"))
    {
        return Vec::new();
    }
    let text = &f.scrubbed;
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    for needle in ["impl SenderFsm", "impl ReceiverFsm"] {
        let mut from = 0usize;
        while let Some(pos) = find_from(text, from, needle) {
            from = pos + needle.len();
            if bytes.get(pos + needle.len()).is_some_and(|&b| is_ident(b)) {
                continue;
            }
            if let Some(open) = find_from(text, pos, "{") {
                let end = match_brace(bytes, open).unwrap_or(bytes.len());
                spans.push((open, end));
            }
        }
    }
    let mut out = Vec::new();
    for (start, end) in spans {
        // Standalone `_` followed by `=>` or a match guard.
        for i in start..end {
            if bytes[i] != b'_'
                || (i > 0 && is_ident(bytes[i - 1]))
                || bytes.get(i + 1).is_some_and(|&b| is_ident(b))
            {
                continue;
            }
            let j = skip_ws(bytes, i + 1);
            let arrow = text[j..].starts_with("=>");
            let guard =
                text[j..].starts_with("if") && !bytes.get(j + 2).is_some_and(|&b| is_ident(b));
            if (arrow || guard) && !f.in_test(i) {
                out.push(RawViolation {
                    rule: "no-wildcard-fsm",
                    offset: i,
                });
            }
        }
        // Bare lowercase binding used as a catch-all arm: `other => ...`.
        for (ws, we) in words(&text[start..end]) {
            let (ws, we) = (start + ws, start + we);
            let word = &text[ws..we];
            let first = word.as_bytes()[0];
            if !(first.is_ascii_lowercase() || first == b'_') || word == "_" {
                continue;
            }
            if matches!(word, "true" | "false" | "self" | "crate" | "super") {
                continue;
            }
            let Some(prev) = prev_non_ws(bytes, ws) else {
                continue;
            };
            if !matches!(bytes[prev], b'{' | b'}' | b',') {
                continue;
            }
            let j = skip_ws(bytes, we);
            if text[j..].starts_with("=>") && !f.in_test(ws) {
                out.push(RawViolation {
                    rule: "no-wildcard-fsm",
                    offset: ws,
                });
            }
        }
    }
    out
}

/// **wire-framing** — MeToMe frames must be built by `me/wire.rs` alone
/// (`seal_chunk` / `seal_lead`), which centralizes cell padding and
/// length framing. Direct use of the low-level primitives or hand-sealed
/// frame payloads elsewhere bypasses the traffic-shape guarantees.
pub fn wire_framing(f: &SourceFile) -> Vec<RawViolation> {
    let in_core = f.rel_path.starts_with("crates/core/")
        && !f.rel_path.ends_with("me/wire.rs")
        && !f.rel_path.ends_with("src/msgs.rs");
    if !(in_core || f.rel_path.contains("fixtures/wire-framing/")) {
        return Vec::new();
    }
    let text = &f.scrubbed;
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    // `cell_for_frame_len` is deliberately not flagged: it is a pure
    // size query (the shaper budgets cells with it); only the
    // frame-*building* primitives are restricted to wire.rs.
    for prim in ["encode_chunk", "pad_frame"] {
        for pos in find_word(text, prim) {
            if bytes.get(pos + prim.len()) != Some(&b'(') || f.in_test(pos) {
                continue;
            }
            // A local stub *definition* (fixtures) is not a call site.
            if let Some(p) = prev_non_ws(bytes, pos) {
                if p >= 1 && &text[p - 1..=p] == "fn" {
                    continue;
                }
            }
            out.push(RawViolation {
                rule: "wire-framing",
                offset: pos,
            });
        }
    }
    let mut from = 0usize;
    while let Some(pos) = find_from(text, from, ".seal(") {
        from = pos + 1;
        if f.in_test(pos) {
            continue;
        }
        let open = pos + ".seal".len();
        let close = match_paren(bytes, open).unwrap_or(bytes.len().saturating_sub(1));
        let args = &text[open..close.min(text.len())];
        if ["ChunkStart", "DeltaStart", "encode_chunk"]
            .iter()
            .any(|w| !find_word(args, w).is_empty())
        {
            out.push(RawViolation {
                rule: "wire-framing",
                offset: pos + 1,
            });
        }
    }
    out
}

/// **secret-hygiene** — four sub-checks: no derived `Debug` and no
/// `Display` on secret-bearing types, no secret field in a formatting
/// macro, no secret identifier in a telemetry-sink call (trace event
/// fields and metric labels are exported to the untrusted host), and
/// (cross-file, resolved by the driver) every key type has a zeroizing
/// `Drop`.
pub fn secret_hygiene(f: &SourceFile) -> (Vec<RawViolation>, CrossFileFacts) {
    let text = &f.scrubbed;
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut facts = CrossFileFacts::default();

    // Derived Debug on a registry type.
    let mut from = 0usize;
    while let Some(pos) = find_from(text, from, "#[derive(") {
        from = pos + 1;
        let open = pos + "#[derive".len();
        let Some(close) = match_paren(bytes, open) else {
            continue;
        };
        let derives_debug = !find_word(&text[open..close], "Debug").is_empty();
        // Walk past `)]`, any further attributes, and visibility to the
        // item keyword.
        let mut j = close + 2;
        loop {
            j = skip_ws(bytes, j);
            if bytes.get(j) == Some(&b'#') {
                match find_from(text, j, "]") {
                    Some(e) => j = e + 1,
                    None => break,
                }
                continue;
            }
            break;
        }
        let Some((mut kw, mut e)) = read_ident(text, j) else {
            continue;
        };
        if kw == "pub" {
            let k = skip_ws(bytes, e);
            if bytes.get(k) == Some(&b'(') {
                e = match_paren(bytes, k).map_or(e, |c| c + 1);
            }
            match read_ident(text, e) {
                Some((w, e2)) => {
                    kw = w;
                    e = e2;
                }
                None => continue,
            }
        }
        if kw != "struct" && kw != "enum" {
            continue;
        }
        let Some((name, _)) = read_ident(text, e) else {
            continue;
        };
        if derives_debug && NO_PRINT_TYPES.contains(&name) && !f.in_test(pos) {
            out.push(RawViolation {
                rule: "secret-hygiene",
                offset: pos,
            });
        }
    }

    // `Display for <SecretType>`.
    let mut from = 0usize;
    while let Some(pos) = find_from(text, from, "Display for ") {
        from = pos + 1;
        if pos > 0 && is_ident(bytes[pos - 1]) {
            continue;
        }
        if let Some((name, _)) = read_ident(text, pos + "Display for ".len() - 1) {
            if NO_PRINT_TYPES.contains(&name) && !f.in_test(pos) {
                out.push(RawViolation {
                    rule: "secret-hygiene",
                    offset: pos,
                });
            }
        }
    }

    // Secret field inside a formatting/logging macro call.
    for mac in FORMAT_MACROS {
        for pos in find_word(text, mac) {
            if bytes.get(pos + mac.len()) != Some(&b'!') {
                continue;
            }
            let open = skip_ws(bytes, pos + mac.len() + 1);
            if bytes.get(open) != Some(&b'(') {
                continue;
            }
            let close = match_paren(bytes, open).unwrap_or(bytes.len().saturating_sub(1));
            let args = &text[open..close.min(text.len())];
            for field in SECRET_FIELDS {
                for fpos in find_word(args, field) {
                    if !f.in_test(open + fpos) {
                        out.push(RawViolation {
                            rule: "secret-hygiene",
                            offset: open + fpos,
                        });
                    }
                }
            }
        }
    }

    // Secret identifier passed to a telemetry sink. Anchored on a
    // method call (`.bump_counter(...)` etc.) so definitions of the
    // sinks themselves don't fire.
    for sink in TELEMETRY_SINKS {
        for pos in find_word(text, sink) {
            if pos == 0 || bytes[pos - 1] != b'.' {
                continue;
            }
            let open = skip_ws(bytes, pos + sink.len());
            if bytes.get(open) != Some(&b'(') {
                continue;
            }
            let close = match_paren(bytes, open).unwrap_or(bytes.len().saturating_sub(1));
            let args = &text[open..close.min(text.len())];
            for secret in SECRET_FIELDS.iter().chain(TELEMETRY_SECRET_ARGS.iter()) {
                for fpos in find_word(args, secret) {
                    if !f.in_test(open + fpos) {
                        out.push(RawViolation {
                            rule: "secret-hygiene",
                            offset: open + fpos,
                        });
                    }
                }
            }
        }
    }

    // Cross-file facts: key-type definitions and Drop impls.
    for name in MUST_ZEROIZE_TYPES {
        for pos in find_word(text, &format!("struct {name}")) {
            if !f.in_test(pos) {
                facts.zeroize_defs.push((name.to_string(), pos));
            }
        }
        if !find_word(text, &format!("Drop for {name}")).is_empty() {
            facts.drop_impls.push(name.to_string());
        }
    }

    (out, facts)
}
