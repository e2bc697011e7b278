//! Per-artifact manifests, diagnostics, and canonical content hashing.
//!
//! A manifest must be *deterministic*: two runs of the same task on the
//! same tree produce byte-identical manifests, which is
//! what `repro lab --verify` checks. Anything wall-clock-dependent
//! (elapsed time, counter snapshots, thread configuration) therefore
//! lives in the sibling `diagnostics.json`, never in the manifest.

use janus_core::Fnv64;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::path::Path;

/// One output file of a task, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FileEntry {
    /// File name inside the task's artifact directory.
    pub file: String,
    /// Size in bytes of the file as written.
    pub raw_bytes: u64,
    /// Canonical content digest (hex FNV-1a 64): JSON files are hashed
    /// through [`canonical_digest`]'s masked canonical form, everything
    /// else over raw bytes.
    pub digest: String,
    /// Volatile files embed wall-clock content; their digest is recorded
    /// for provenance but excluded from verification.
    pub volatile: bool,
}

/// Everything needed to reproduce (and verify) one task's artifacts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Task name.
    pub task: String,
    /// The task's configuration, embedded verbatim.
    pub config: Value,
    /// Canonical digest of `config` (hex).
    pub config_digest: String,
    /// `IterationPlan` digests consumed by the artifact (hex), when the
    /// task compiles plans.
    pub plan_digests: Vec<String>,
    /// `git describe --always --dirty` of the producing tree.
    pub git_describe: String,
    /// `rustc -V` of the producing toolchain.
    pub rustc: String,
    /// Workspace crate version.
    pub janus_version: String,
    /// JSON keys nulled before hashing this task's artifacts (the
    /// timing-only fields excluded from bitwise verification).
    pub masked_keys: Vec<String>,
    /// Output files, in production order.
    pub outputs: Vec<FileEntry>,
}

impl Manifest {
    /// Render as pretty JSON (deterministic field order).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("manifest renders");
        s.push('\n');
        s
    }

    /// Parse a manifest file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
    }

    /// The non-volatile output entries (what verification compares).
    pub fn verified_outputs(&self) -> impl Iterator<Item = &FileEntry> {
        self.outputs.iter().filter(|f| !f.volatile)
    }
}

/// How a task run went: the wall-clock side of the ledger, kept out of
/// the manifest so manifests stay reproducible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostics {
    /// Wall time of the run closure, milliseconds.
    pub elapsed_ms: u64,
    /// The `--jobs` bound the executor ran under.
    pub jobs: u64,
    /// `janus-tensor` pool width at run time.
    pub pool_threads: u64,
    /// `janus-obs` global counter snapshot after the run, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl Diagnostics {
    /// Render as pretty JSON.
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("diagnostics renders");
        s.push('\n');
        s
    }
}

/// Canonical content digest of one artifact file (hex FNV-1a 64).
///
/// Files named `*.json` are parsed, every field whose key is in
/// `masked` is recursively replaced with `null`, and the tree is
/// re-rendered compact before hashing — so digests are insensitive to
/// whitespace and to the masked (timing-only) fields, but sensitive to
/// every other byte of content. Non-JSON files (and JSON that fails to
/// parse) hash over raw bytes.
pub fn canonical_digest(name: &str, bytes: &[u8], masked: &[String]) -> String {
    let canonical: Option<String> = if name.ends_with(".json") {
        canonical_masked_json(bytes, masked)
    } else {
        None
    };
    let hashed = canonical.as_deref().map(str::as_bytes).unwrap_or(bytes);
    format!("{:016x}", Fnv64::digest_of(hashed))
}

/// The masked canonical form of a JSON artifact — parsed, every `masked`
/// key recursively nulled, re-rendered compact. This is exactly the byte
/// stream [`canonical_digest`] hashes for `*.json` files, exposed so
/// golden tests can pin the verified (timing-masked) content of an
/// artifact instead of an opaque digest. `None` when `bytes` is not
/// valid JSON.
pub fn canonical_masked_json(bytes: &[u8], masked: &[String]) -> Option<String> {
    std::str::from_utf8(bytes)
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(text).ok())
        .map(|mut v| {
            mask_value(&mut v, masked);
            serde_json::to_string(&v).expect("value renders")
        })
}

/// Recursively replace every object field whose key is in `masked` with
/// `null`.
fn mask_value(v: &mut Value, masked: &[String]) {
    match v {
        Value::Obj(fields) => {
            for (k, val) in fields.iter_mut() {
                if masked.iter().any(|m| m == k) {
                    *val = Value::Null;
                } else {
                    mask_value(val, masked);
                }
            }
        }
        Value::Arr(items) => {
            for item in items.iter_mut() {
                mask_value(item, masked);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masked_fields_do_not_affect_digest() {
        let masked = vec!["elapsed_ms".to_string()];
        let a = br#"{"rows": [{"x": 1, "elapsed_ms": 17}], "elapsed_ms": 3}"#;
        let b = br#"{"rows":[{"x":1,"elapsed_ms":99}],"elapsed_ms":123}"#;
        let c = br#"{"rows":[{"x":2,"elapsed_ms":17}],"elapsed_ms":3}"#;
        let da = canonical_digest("r.json", a, &masked);
        let db = canonical_digest("r.json", b, &masked);
        let dc = canonical_digest("r.json", c, &masked);
        assert_eq!(da, db, "masked field + whitespace must not matter");
        assert_ne!(da, dc, "real content must matter");
    }

    #[test]
    fn non_json_hashes_raw_bytes() {
        let d1 = canonical_digest("m.txt", b"abc", &[]);
        let d2 = canonical_digest("m.txt", b"abd", &[]);
        assert_ne!(d1, d2);
        assert_eq!(d1, format!("{:016x}", Fnv64::digest_of(b"abc")));
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = Manifest {
            task: "fig3".into(),
            config: serde_json::from_str(r#"{"iters": 4}"#).unwrap(),
            config_digest: "00000000deadbeef".into(),
            plan_digests: vec!["0123456789abcdef".into()],
            git_describe: "abc1234".into(),
            rustc: "rustc 1.x".into(),
            janus_version: "0.1.0".into(),
            masked_keys: vec!["elapsed_ms".into()],
            outputs: vec![FileEntry {
                file: "fig3.json".into(),
                raw_bytes: 42,
                digest: "0000000000000002".into(),
                volatile: false,
            }],
        };
        let text = m.to_json();
        let back: Manifest = serde_json::from_str(&text).unwrap();
        assert_eq!(back, m);
    }
}
