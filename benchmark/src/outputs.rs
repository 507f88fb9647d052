//! The correctness gate of the repro workloads: a digest of every file a
//! plan writes, compared with a reference committed beside the
//! benchmark. Run manifests (`run-*.json`) carry wall times and
//! directory names, so they are left out; every CSV and plot script is
//! deterministic and must match byte for byte.

use std::fs;
use std::io;
use std::path::Path;

use bpred_trace::digest::{FNV_OFFSET, FNV_PRIME};

/// FNV-1a over `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// Whether a file in an output directory is checked.
fn checked(name: &str) -> bool {
    !(name.starts_with("run-") && name.ends_with(".json"))
}

/// `<digest> <name>` for every checked file in `dir`, sorted by name:
/// the form the references are committed in.
///
/// # Errors
///
/// Propagates failures to list or read the directory.
pub fn digest_dir(dir: &Path) -> io::Result<String> {
    let mut lines = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if checked(&name) {
            lines.push(format!("{:016x} {name}\n", fnv(&fs::read(entry.path())?)));
        }
    }
    lines.sort_by(|a, b| a[17..].cmp(&b[17..]));
    Ok(lines.concat())
}

/// Checks the files in `dir` against `reference`, naming up to three
/// differing lines when they disagree.
///
/// # Errors
///
/// Returns the differences, or a failure to read `dir`.
pub fn check(dir: &Path, reference: &str) -> Result<(), String> {
    let got = digest_dir(dir).map_err(|e| format!("cannot digest {}: {e}", dir.display()))?;
    if got == reference {
        return Ok(());
    }
    let missing = reference.lines().filter(|l| !got.lines().any(|g| g == *l));
    let unexpected = got.lines().filter(|l| !reference.lines().any(|r| r == *l));
    let mut shown: Vec<String> = missing.take(3).map(|l| format!("-{l}")).collect();
    shown.extend(unexpected.take(3).map(|l| format!("+{l}")));
    Err(format!(
        "outputs in {} differ from the reference ({} vs {} files): {}",
        dir.display(),
        got.lines().count(),
        reference.lines().count(),
        shown.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::WorkDir;

    #[test]
    fn the_digest_ignores_run_manifests() {
        let work = WorkDir::for_test("manifest");
        let dir = work.path();
        fs::write(dir.join("fig2_0.csv"), "scheme,config\ngshare,1\n").expect("write");
        let before = digest_dir(dir).expect("digest");
        fs::write(dir.join("run-all.json"), "{\"wall\": 1.0}").expect("write");
        assert_eq!(digest_dir(dir).expect("digest"), before);
        fs::write(dir.join("run-all.json"), "{\"wall\": 2.0}").expect("write");
        assert_eq!(digest_dir(dir).expect("digest"), before);
        assert!(check(dir, &before).is_ok());
    }

    #[test]
    fn a_one_byte_csv_edit_changes_the_digest() {
        let work = WorkDir::for_test("edit");
        let dir = work.path();
        fs::write(dir.join("fig2_0.csv"), "scheme,config\ngshare,1\n").expect("write");
        fs::write(dir.join("fig2_0.gp"), "plot 'fig2_0.csv'\n").expect("write");
        let before = digest_dir(dir).expect("digest");
        assert_eq!(before.lines().count(), 2);
        fs::write(dir.join("fig2_0.csv"), "scheme,config\ngshare,2\n").expect("write");
        let after = digest_dir(dir).expect("digest");
        assert_ne!(after, before);
        let err = check(dir, &before).expect_err("edited file must fail");
        assert!(err.contains("fig2_0.csv"), "{err}");
        assert!(!err.contains("fig2_0.gp"), "{err}");
    }
}
