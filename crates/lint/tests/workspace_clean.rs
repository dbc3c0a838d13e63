//! The workspace's own sources must lint clean.
//!
//! This is the self-check behind the CI gate (`lt-lint --workspace
//! --deny`): zero findings, zero stale suppressions, and exactly the
//! pinned number of justified `lt-lint: allow(...)` directives. The pin
//! forces every new suppression through code review — adding one without
//! updating the count here fails the build.

use std::path::{Path, PathBuf};

use lt_lint::lint_workspace;

/// Justified suppressions currently in the workspace. Update this number
/// (in the same commit as the new directive) when a suppression is added
/// or removed.
///
/// Audited with the LT08–LT11 rollout: 80 pre-existing allows (LT01/LT03/
/// LT04/LT05/LT06/LT07 — all still matching a finding, none stale) plus 7
/// concurrency allows: five LT10 shutdown/parking joins in
/// `service::pool` / `service::server`, one LT10 single-request test join
/// in `tests/service_http.rs`, and one LT11 human-facing error message in
/// `service::api`.
///
/// Re-audited with the connection reactor: +9 in `service::reactor`
/// (six LT07 best-effort sends on shutdown/teardown paths, two LT01
/// fail-fast/invariant panics, one LT10 drain-bounded shard join); the
/// front-end rewrite otherwise moved two LT07 socket-option allows from
/// `server.rs` into `reactor.rs`'s registration path and added one LT01
/// parser invariant in `http.rs` while retiring one LT07 in `server.rs`.
///
/// Re-audited with the single HTTP framing core: −1, that `http.rs`
/// parser invariant, which the framer no longer needs.
const PINNED_ALLOWS: usize = 95;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("manifest dir has two ancestors")
        .to_path_buf()
}

#[test]
fn workspace_lints_clean() {
    let report = lint_workspace(&workspace_root()).expect("walk workspace");
    assert!(report.files_scanned > 50, "walk looks truncated");
    assert!(
        report.findings.is_empty(),
        "workspace has lint findings:\n{}",
        report.to_table()
    );
    assert!(
        report.unused_allows.is_empty(),
        "stale allow directives (they no longer match a finding):\n{}",
        report.to_table()
    );
    assert_eq!(
        report.allows.len(),
        PINNED_ALLOWS,
        "suppression count changed; review the new/removed allows and \
         update PINNED_ALLOWS:\n{}",
        report.to_table()
    );
}
