//! Where and on what a number was measured: cpu model, core count,
//! compiler, commit. A number without this cannot be compared later.

use crate::json::{self, Json};
use std::path::Path;
use std::process::Command;

/// The benchmark's own directory (holds `out/` and `pinned.json`).
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The checkout the benchmark was built in.
pub fn repo_root() -> &'static Path {
    bench_dir().parent().unwrap_or(bench_dir())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// The checked-out commit, read from `.git` directly (a driver checkout
/// is not a repository: `unknown` there).
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.split_once(' ')
                    .filter(|(_, name)| *name == reference)
                    .map(|(h, _)| h.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The machine-and-commit stamp every output file carries.
pub fn stamp() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    json::obj([
        ("cpu_model", json::str(cpu_model())),
        ("nproc", json::count(nproc)),
        ("rustc", json::str(rustc_version())),
        ("git_commit", json::str(git_commit(repo_root()))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_names_the_machine_and_the_commit() {
        let s = stamp();
        for key in ["cpu_model", "rustc", "git_commit"] {
            assert!(
                s.get(key)
                    .and_then(Json::as_str)
                    .is_some_and(|v| !v.is_empty()),
                "{key}"
            );
        }
        assert!(s
            .get("nproc")
            .and_then(Json::as_num)
            .is_some_and(|n| n >= 1.0));
        assert!(bench_dir().join("Cargo.toml").is_file());
    }

    #[test]
    fn commit_is_resolved_through_refs_and_packed_refs() {
        // Scratch space stays inside the benchmark's own (git-ignored) out/.
        let dir = bench_dir()
            .join("out")
            .join(format!("stamp-test-{}", std::process::id()));
        let git = dir.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).expect("temp dir");
        assert_eq!(git_commit(&dir), "unknown");
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").expect("write");
        std::fs::write(
            git.join("packed-refs"),
            "# pack-refs\nabc123 refs/heads/main\n",
        )
        .expect("write");
        assert_eq!(git_commit(&dir), "abc123");
        std::fs::write(git.join("refs/heads/main"), "def456\n").expect("write");
        assert_eq!(git_commit(&dir), "def456");
        std::fs::write(git.join("HEAD"), "0123abcd\n").expect("write");
        assert_eq!(git_commit(&dir), "0123abcd");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
