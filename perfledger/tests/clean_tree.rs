//! The benchmark writes only where it is told to: a run leaves the git
//! working tree and the library cache exactly as they were, and puts its
//! report under `--out` and nowhere else.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// `git status --porcelain --ignored` of the repository, or `None` when
/// this is not a git checkout.
fn git_status(root: &Path) -> Option<String> {
    let out = Command::new("git")
        .args([
            "--no-optional-locks",
            "status",
            "--porcelain",
            "--ignored",
            "--untracked-files=all",
        ])
        .current_dir(root)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
}

fn listing(dir: &Path) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| {
                    let len = e.metadata().map_or(0, |m| m.len());
                    (e.file_name().to_string_lossy().into_owned(), len)
                })
                .collect()
        })
        .unwrap_or_default();
    v.sort();
    v
}

#[test]
fn a_run_leaves_the_tree_clean_and_writes_only_under_out() {
    let root = repo_root();
    let cache = root.join("target/ssdm-cache");
    let out =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("clean-tree-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);

    // Cargo's own build output under the target directory is not the
    // benchmark's doing; compare everything else.
    let outside_target = |s: String| -> Vec<String> {
        s.lines()
            .filter(|l| !l.contains("target/") && !l.contains(".bench_build/"))
            .map(str::to_string)
            .collect()
    };
    let status_before = git_status(&root).map(outside_target);
    let cache_before = listing(&cache);

    let run = Command::new(env!("CARGO_BIN_EXE_ssdm-perfledger"))
        .args([
            "--workload",
            "sta_table2",
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .arg("--data")
        .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("data"))
        .arg("--out")
        .arg(&out)
        .current_dir(&root)
        .output()
        .expect("benchmark runs");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8_lossy(&run.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true,"), "{last}");

    assert_eq!(listing(&cache), cache_before, "library cache changed");
    if let Some(before) = status_before {
        let after = git_status(&root)
            .map(outside_target)
            .expect("git still works");
        assert_eq!(after, before, "the run changed the working tree");
    }
    let written = listing(&out);
    assert_eq!(written.len(), 1, "{written:?}");
    assert_eq!(written[0].0, "sta_table2-seed7-trace0.json");
    std::fs::remove_dir_all(&out).expect("clean up");
}
