//! Crash-safe file persistence: write-temp + fsync + rename.
//!
//! Every durable artifact in the workspace — corpus findings, campaign
//! checkpoints, bench reports — goes through [`write_atomic`] so a crash
//! (or SIGKILL) at any instant leaves either the old file or the new file
//! on disk, never a truncated hybrid. The temp sibling always carries a
//! `.tmp` extension so recovery passes can sweep strays.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide sequence number for staging-file names. A PID alone is not
/// enough: two threads of one process (e.g. two daemon campaigns) writing
/// the same target would share a staging file, and one truncating it while
/// the other renames can put a torn file in place.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `path` atomically: write a `.tmp` sibling in the same
/// directory, fsync it, rename it over `path`, then best-effort fsync the
/// parent directory so the rename itself is durable. Returns the number of
/// bytes written.
///
/// The temp name embeds the writer's PID and a process-wide sequence number
/// (`<name>.<pid>.<seq>.tmp`) so neither two processes nor two threads of
/// one process racing on the same target ever share a staging file; last
/// rename wins, and either way `path` holds one complete write.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<u64> {
    write_atomic_from(path, |file| file.write_all(bytes))
}

/// [`write_atomic`] for a document produced as it is written: `fill`
/// writes the bytes straight into the staging file, so they are never held
/// in memory whole. An error from `fill` fails the write like any other,
/// leaving `path` as it was.
pub fn write_atomic_from(
    path: &Path,
    fill: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<u64> {
    let tmp = tmp_sibling(path)?;
    let result = write_via_tmp(path, &tmp, fill);
    if result.is_err() {
        // Never leave a stray staging file behind a failed write.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

fn write_via_tmp(
    path: &Path,
    tmp: &Path,
    fill: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<u64> {
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(tmp)?;
    fill(&mut file)?;
    let written = file.stream_position()?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(tmp, path)?;
    // Durability of the rename needs the directory entry flushed too. Some
    // platforms refuse to open or fsync a directory; that only weakens
    // durability, not atomicity, so ignore failures.
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
    Ok(written)
}

fn tmp_sibling(path: &Path) -> io::Result<PathBuf> {
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "cannot write atomically to {}: no file name",
                path.display()
            ),
        )
    })?;
    let mut tmp_name = name.to_os_string();
    tmp_name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    Ok(path.with_file_name(tmp_name))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ccfuzz-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_land_complete_and_leave_no_temp_files() {
        let dir = scratch_dir("basic");
        let path = dir.join("artifact.json");
        let written = write_atomic(&path, b"{\"ok\":true}\n").unwrap();
        assert_eq!(written, 12);
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"ok\":true}\n");
        let strays: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().extension().map(|x| x == "tmp") == Some(true))
            .collect();
        assert!(strays.is_empty(), "staging file survived the rename");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overwrites_replace_the_whole_file() {
        let dir = scratch_dir("overwrite");
        let path = dir.join("artifact.json");
        write_atomic(&path, b"a longer first version").unwrap();
        write_atomic(&path, b"short").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"short");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_in_one_process_never_publish_a_torn_file() {
        // Regression test: with a PID-only staging name, every thread below
        // shares one staging file, so a reader can observe a file that one
        // thread truncated mid-way through another thread's rename. Each
        // write is `{"writer":w,"payload":"ww...w"}` with a writer-specific
        // length, so any interleaving of two writers fails to parse.
        let dir = scratch_dir("threads");
        let path = dir.join("artifact.json");
        const WRITERS: usize = 8;
        const ROUNDS: usize = 50;
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let path = &path;
                scope.spawn(move || {
                    let body = "w".repeat(16 + w * 3);
                    let doc = format!("{{\"writer\":{w},\"payload\":\"{body}\"}}");
                    for _ in 0..ROUNDS {
                        write_atomic(path, doc.as_bytes()).unwrap();
                        let seen = std::fs::read_to_string(path).unwrap();
                        assert!(
                            seen.starts_with("{\"writer\":") && seen.ends_with("\"}"),
                            "torn file observed: {seen:?}"
                        );
                    }
                });
            }
        });
        // Every staging file was either renamed or cleaned up.
        let strays = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().extension().map(|x| x == "tmp") == Some(true))
            .count();
        assert_eq!(strays, 0, "staging files survived the hammering");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_streamed_write_counts_its_bytes_and_a_failed_one_keeps_the_old_file() {
        let dir = scratch_dir("streamed");
        let path = dir.join("artifact.json");
        let written = write_atomic_from(&path, |file| {
            file.write_all(b"{\"ok\":")?;
            file.write_all(b"true}\n")
        })
        .unwrap();
        assert_eq!(written, 12);
        let err = write_atomic_from(&path, |file| {
            file.write_all(b"{\"torn\":")?;
            Err(io::Error::other("serializer gave up"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "serializer gave up");
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"ok\":true}\n");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "staging file left"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_parent_directory_is_an_error_without_panicking() {
        let dir = scratch_dir("missing");
        let path = dir.join("nope").join("artifact.json");
        assert!(write_atomic(&path, b"x").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
