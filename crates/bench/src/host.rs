//! The host fields every timing JSON carries, so that a number can be
//! compared across commits and machines: `host_parallelism`, `profile`
//! and `code_version`, the same three the end-to-end benchmark's run
//! record holds.

use std::path::Path;
use std::process::Command;

/// The three host fields as JSON object members, one per line at a
/// two-space indent, each line ending in a comma:
///
/// * `host_parallelism` — [`socbus_exec::default_threads`];
/// * `profile` — `"debug"` or `"release"`, from `cfg!(debug_assertions)`;
/// * `code_version` — the first 12 hex digits of the commit checked out
///   in the working directory, or `"unknown"`. A `+` follows when git
///   finds tracked files outside `results/` changed against that commit:
///   a timing taken before its change is committed names the parent and
///   says that it measured more than the parent.
#[must_use]
pub fn json_members() -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut version = head_commit(Path::new(".git"));
    if version != "unknown" && uncommitted_changes() {
        version.push('+');
    }
    format!(
        "  \"host_parallelism\": {},\n  \"profile\": \"{profile}\",\n  \"code_version\": \"{version}\",\n",
        socbus_exec::default_threads()
    )
}

/// The commit `HEAD` names in the git directory `git`, through a loose
/// or a packed ref, or `"unknown"`.
fn head_commit(git: &Path) -> String {
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        None => Some(head.to_owned()),
        Some(r) => read(r).map(|s| s.trim().to_owned()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_owned()))
        }),
    };
    rev.map_or("unknown".to_owned(), |r| r.chars().take(12).collect())
}

/// Whether `git diff` finds tracked files outside `results/` changed
/// against `HEAD`; false when git cannot tell.
fn uncommitted_changes() -> bool {
    Command::new("git")
        .args(["diff", "--quiet", "HEAD", "--", ".", ":(exclude)results"])
        .output()
        .is_ok_and(|out| out.status.code() == Some(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn git_dir(name: &str, files: &[(&str, &str)]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("socbus-host-{}-{name}", std::process::id()));
        for (path, text) in files {
            let file = dir.join(path);
            std::fs::create_dir_all(file.parent().expect("a file has a parent"))
                .expect("create the test git directory");
            std::fs::write(file, text).expect("write a test git file");
        }
        dir
    }

    #[test]
    fn head_commit_follows_loose_packed_and_detached_heads() {
        let sha = "0123456789abcdef0123456789abcdef01234567";
        let loose = git_dir(
            "loose",
            &[("HEAD", "ref: refs/heads/main\n"), ("refs/heads/main", sha)],
        );
        let packed = git_dir(
            "packed",
            &[
                ("HEAD", "ref: refs/heads/main\n"),
                (
                    "packed-refs",
                    &format!("# pack-refs\n{sha} refs/heads/main\n"),
                ),
            ],
        );
        let detached = git_dir("detached", &[("HEAD", &format!("{sha}\n"))]);
        for dir in [&loose, &packed, &detached] {
            assert_eq!(head_commit(dir), "0123456789ab", "{}", dir.display());
            std::fs::remove_dir_all(dir).expect("remove the test git directory");
        }
        assert_eq!(head_commit(Path::new("/nonexistent/.git")), "unknown");
    }

    #[test]
    fn json_members_are_three_comma_terminated_lines() {
        let members = json_members();
        let keys: Vec<&str> = members
            .lines()
            .map(|line| {
                assert!(line.starts_with("  \"") && line.ends_with(','), "{line}");
                line.trim_start().split('"').nth(1).expect("a quoted key")
            })
            .collect();
        assert_eq!(keys, ["host_parallelism", "profile", "code_version"]);
        assert!(members.ends_with(",\n"));
    }
}
