//! # testutil — shared test helpers
//!
//! The integration suites create container files in the OS temp dir;
//! when an assertion fails before the trailing `remove_file`, the file
//! leaks. [`TempPath`] is an RAII guard that deletes the file on drop
//! (including on panic/unwind), so failed runs leave nothing behind.

use std::path::{Path, PathBuf};

/// RAII guard around a temp-dir path: the file or directory (if it
/// exists) is removed when the guard is dropped, even if the test
/// panicked.
///
/// ```
/// let t = testutil::TempPath::new("doc", "h5l");
/// std::fs::write(t.path(), b"scratch").unwrap();
/// let p = t.path().to_path_buf();
/// drop(t);
/// assert!(!p.exists());
/// ```
#[derive(Debug)]
pub struct TempPath {
    path: PathBuf,
}

impl TempPath {
    /// A unique path in the OS temp dir, namespaced by process id so
    /// concurrent test binaries cannot collide. The file itself is not
    /// created; `name` should be unique within the calling test binary.
    pub fn new(name: &str, ext: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("suite-{}-{}.{}", std::process::id(), name, ext));
        // A stale file from a killed run would confuse size/offset
        // assertions — start from a clean slate.
        let _ = std::fs::remove_file(&path);
        TempPath { path }
    }

    /// The guarded path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        // A test may also use the path as a directory of step files.
        if self.path.is_dir() {
            let _ = std::fs::remove_dir_all(&self.path);
        } else {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

impl AsRef<Path> for TempPath {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removes_file_on_drop() {
        let guard = TempPath::new("unit-drop", "tmp");
        std::fs::write(guard.path(), b"x").unwrap();
        let p = guard.path().to_path_buf();
        assert!(p.exists());
        drop(guard);
        assert!(!p.exists());
    }

    #[test]
    fn removes_file_on_panic() {
        let p = {
            let result = std::panic::catch_unwind(|| {
                let guard = TempPath::new("unit-panic", "tmp");
                std::fs::write(guard.path(), b"x").unwrap();
                let p = guard.path().to_path_buf();
                assert!(p.exists());
                let carrier = p.clone();
                // The guard drops during unwind.
                std::panic::panic_any(carrier);
            });
            *result.unwrap_err().downcast::<PathBuf>().unwrap()
        };
        assert!(!p.exists());
    }

    #[test]
    fn missing_file_is_fine() {
        let guard = TempPath::new("unit-missing", "tmp");
        assert!(!guard.path().exists());
        // Drop without ever creating the file: must not panic.
    }
}
