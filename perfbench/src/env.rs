//! What a run records about where it ran, and the environment it refuses.

use std::ffi::OsString;
use std::path::{Path, PathBuf};

/// Prefix of the engine's tuning variables (`SPINNING_CHANNEL_CREDITS`,
/// `SPINNING_MEMORY_BUDGET`, ...).  Any of them silently changes what is
/// measured, so a run refuses to start while one is set.
pub const FORBIDDEN_PREFIX: &str = "SPINNING_";

/// The names among `vars` that start with [`FORBIDDEN_PREFIX`], sorted.
pub fn forbidden_variables(vars: impl IntoIterator<Item = (OsString, OsString)>) -> Vec<String> {
    let mut names: Vec<String> = vars
        .into_iter()
        .map(|(name, _)| name.to_string_lossy().into_owned())
        .filter(|name| name.starts_with(FORBIDDEN_PREFIX))
        .collect();
    names.sort();
    names
}

/// The repository checkout this benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// The commit checked out at `root`, read from `.git` without running git,
/// or `"none"` when `root` is not a git work tree (the benchmark also runs
/// from plain source exports).
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return sha.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (sha, name) = line.split_once(' ')?;
                (name == reference).then(|| sha.to_owned())
            })
        })
        .unwrap_or_else(|| "none".to_owned())
}

/// A 64-bit FNV-1a fingerprint over the engine's sources (every `.rs` and
/// `Cargo.toml` under `src/` and `crates/`, plus the root manifest and lock
/// file), so runs of a checkout without git history still name their code.
pub fn source_fingerprint(root: &Path) -> String {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["src", "crates"] {
        collect_sources(&root.join(dir), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in files {
        let Ok(bytes) = std::fs::read(&file) else {
            continue;
        };
        let relative = file.strip_prefix(root).unwrap_or(&file);
        feed(relative.to_string_lossy().as_bytes());
        feed(&bytes);
    }
    format!("{hash:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_engine_variables_are_forbidden() {
        let vars = [
            ("PATH", "/bin"),
            ("SPINNING_MEMORY_BUDGET", "0"),
            ("SPINNING_CHANNEL_CREDITS", "4"),
            ("RUST_LOG", "x"),
        ]
        .map(|(k, v)| (OsString::from(k), OsString::from(v)));
        assert_eq!(
            forbidden_variables(vars),
            vec!["SPINNING_CHANNEL_CREDITS", "SPINNING_MEMORY_BUDGET"]
        );
    }

    #[test]
    fn fingerprint_is_stable_and_names_the_sources() {
        let root = repo_root();
        let a = source_fingerprint(&root);
        assert_eq!(a, source_fingerprint(&root));
        assert_eq!(a.len(), 16);
        assert_ne!(a, source_fingerprint(&root.join("no-such-dir")));
    }
}
