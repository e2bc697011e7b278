//! Dropping a TCP mesh must release its reader threads.
//!
//! Its own test binary: the count is process-wide, so no other test may
//! be building meshes in this process.
#![cfg(target_os = "linux")]

use janus_comm::tcp::tcp_mesh_localhost;
use std::time::{Duration, Instant};

fn reader_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("tcp-reader-"))
        .count()
}

/// Poll (threads name themselves and exit asynchronously) until the
/// reader count is `want` or 2 s pass; returns the last count seen.
fn settle_to(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(2);
    while reader_threads() != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    reader_threads()
}

#[test]
fn dropped_meshes_release_their_reader_threads() {
    let before = reader_threads();
    let mesh = tcp_mesh_localhost(4).expect("localhost mesh");
    assert_eq!(settle_to(before + 4 * 3), before + 4 * 3, "one per peer");
    drop(mesh);
    for _ in 0..7 {
        drop(tcp_mesh_localhost(4).expect("localhost mesh"));
    }
    assert_eq!(
        settle_to(before),
        before,
        "reader threads outlived their endpoints"
    );
}
